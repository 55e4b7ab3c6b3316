package mps

import (
	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/tensor"
)

// BondDims returns the internal bond dimensions (length n-1).
func (s *MPS) BondDims() []int {
	out := make([]int, 0, len(s.Sites)-1)
	for i := 0; i < len(s.Sites)-1; i++ {
		out = append(out, s.Sites[i].Dim(2))
	}
	return out
}

// CanonicalizeLeft returns an equivalent MPS in left-canonical form:
// every site except the last is a left isometry (sum_{l,p} conj(A)[l,p,a]
// A[l,p,b] = delta_{ab}), with the state's norm concentrated in the last
// site. Produced by a left-to-right QR sweep.
func CanonicalizeLeft(eng backend.Engine, s *MPS) *MPS {
	eng, sp := backend.Scope(eng, "mps.canonicalize")
	sp.SetStr("direction", "left")
	defer sp.End()
	n := s.Len()
	out := make([]*tensor.Dense, n)
	carry := s.Sites[0]
	for i := 0; i < n-1; i++ {
		q, r := eng.QRSplit(carry, 2) // rows (l, p), cols (right bond)
		out[i] = q
		carry = eng.Einsum("kb,bpc->kpc", r, s.Sites[i+1])
	}
	out[n-1] = carry
	return NewMPS(out)
}

// CanonicalizeRight is the mirror image: every site except the first is a
// right isometry, produced by a right-to-left sweep.
func CanonicalizeRight(eng backend.Engine, s *MPS) *MPS {
	eng, sp := backend.Scope(eng, "mps.canonicalize")
	sp.SetStr("direction", "right")
	defer sp.End()
	n := s.Len()
	out := make([]*tensor.Dense, n)
	carry := s.Sites[n-1]
	for i := n - 1; i > 0; i-- {
		// Factor carry [a,p,b] with rows (p,b): transpose to [p,b,a],
		// QR gives Q [p,b,k] (right isometry after folding) and R [k,a].
		q, r := eng.QRSplit(carry.Transpose(1, 2, 0), 2)
		out[i] = q.Transpose(2, 0, 1) // [k, p, b]
		carry = eng.Einsum("apb,kb->apk", s.Sites[i-1], r)
	}
	out[0] = carry
	return NewMPS(out)
}

// CompressCanonical truncates every bond to at most m using the standard
// quasi-optimal scheme: left-canonicalize, then sweep right-to-left with
// truncated SVDs. In a canonical form each local truncation is globally
// optimal for that bond, unlike the single-pass Compress sweep.
func CompressCanonical(eng backend.Engine, s *MPS, m int) *MPS {
	n := s.Len()
	if n == 1 {
		return s.Clone()
	}
	eng, sp := backend.Scope(eng, "mps.compress")
	sp.SetStr("mode", "canonical").SetInt("m", int64(m))
	defer sp.End()
	lc := CanonicalizeLeft(eng, s)
	out := make([]*tensor.Dense, n)
	carry := lc.Sites[n-1]
	st := einsumsvd.Explicit{Mode: einsumsvd.SigmaLeft}
	for i := n - 1; i > 0; i-- {
		// Split carry [a,p,b] into (a) x (p,b) with the new bond capped.
		b, a, _ := einsumsvd.MustFactor(st, eng, "apb->ax|xpb", m, carry)
		out[i] = a
		carry = eng.Einsum("lqc,cx->lqx", lc.Sites[i-1], b)
	}
	out[0] = carry
	return NewMPS(out)
}
