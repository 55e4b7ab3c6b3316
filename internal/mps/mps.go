// Package mps implements matrix product states and operators (paper
// section II-B) with the approximate MPO application algorithms the
// boundary-MPS PEPS contraction is built on: exact application and the
// zip-up truncation of paper Algorithm 3, parameterized by an einsumsvd
// strategy (explicit SVD for BMPS, implicit randomized SVD for IBMPS).
//
// Index conventions:
//
//	MPS site:  [left bond, physical, right bond]
//	MPO site:  [left bond, physical out, physical in, right bond]
//
// Boundary bonds have dimension 1.
package mps

import (
	"fmt"
	"math"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/tensor"
)

// MPS is a matrix product state.
type MPS struct {
	Sites []*tensor.Dense
}

// MPO is a matrix product operator.
type MPO struct {
	Sites []*tensor.Dense
}

// NewMPS validates site shapes and boundary bonds and wraps them.
func NewMPS(sites []*tensor.Dense) *MPS {
	if len(sites) == 0 {
		panic("mps: empty MPS")
	}
	for i, s := range sites {
		if s.Rank() != 3 {
			panic(fmt.Sprintf("mps: site %d has rank %d, want 3", i, s.Rank()))
		}
		if i > 0 && sites[i-1].Dim(2) != s.Dim(0) {
			panic(fmt.Sprintf("mps: bond mismatch between sites %d and %d", i-1, i))
		}
	}
	if sites[0].Dim(0) != 1 || sites[len(sites)-1].Dim(2) != 1 {
		panic("mps: boundary bonds must have dimension 1")
	}
	return &MPS{Sites: sites}
}

// NewMPO validates site shapes and wraps them.
func NewMPO(sites []*tensor.Dense) *MPO {
	if len(sites) == 0 {
		panic("mps: empty MPO")
	}
	for i, s := range sites {
		if s.Rank() != 4 {
			panic(fmt.Sprintf("mps: MPO site %d has rank %d, want 4", i, s.Rank()))
		}
		if i > 0 && sites[i-1].Dim(3) != s.Dim(0) {
			panic(fmt.Sprintf("mps: MPO bond mismatch between sites %d and %d", i-1, i))
		}
	}
	if sites[0].Dim(0) != 1 || sites[len(sites)-1].Dim(3) != 1 {
		panic("mps: MPO boundary bonds must have dimension 1")
	}
	return &MPO{Sites: sites}
}

// Len returns the number of sites.
func (s *MPS) Len() int { return len(s.Sites) }

// MaxBond returns the largest internal bond dimension.
func (s *MPS) MaxBond() int {
	m := 1
	for _, t := range s.Sites {
		if t.Dim(2) > m {
			m = t.Dim(2)
		}
	}
	return m
}

// Clone returns a deep copy.
func (s *MPS) Clone() *MPS {
	out := make([]*tensor.Dense, len(s.Sites))
	for i, t := range s.Sites {
		out[i] = t.Clone()
	}
	return &MPS{Sites: out}
}

// Product returns the product state with the given per-site vectors.
func Product(vectors [][]complex128) *MPS {
	sites := make([]*tensor.Dense, len(vectors))
	for i, v := range vectors {
		sites[i] = tensor.FromData(append([]complex128(nil), v...), 1, len(v), 1)
	}
	return NewMPS(sites)
}

// Random returns an MPS of n sites with physical dimension d and uniform
// internal bond dimension bond (clipped near the boundary to keep shapes
// consistent with open boundary conditions).
func Random(rng *rand.Rand, n, d, bond int) *MPS {
	sites := make([]*tensor.Dense, n)
	left := 1
	for i := 0; i < n; i++ {
		right := bond
		if i == n-1 {
			right = 1
		}
		sites[i] = tensor.Rand(rng, left, d, right)
		left = right
	}
	return NewMPS(sites)
}

// Inner returns <s|t>, contracting the two states site by site with
// transfer matrices.
func Inner(eng backend.Engine, s, t *MPS) complex128 {
	if s.Len() != t.Len() {
		panic("mps: length mismatch")
	}
	// env[a, b]: a = bond of conj(s), b = bond of t
	env := tensor.Ones(1, 1)
	for i := range s.Sites {
		sc := s.Sites[i].Conj()
		env = eng.Einsum("ab,apc,bpd->cd", env, sc, t.Sites[i])
	}
	return env.Item()
}

// CloseWith zips a top boundary MPS against a bottom boundary MPS,
// pairing their physical legs site by site without conjugation (the
// bottom boundary comes from a vertically flipped sweep, which already
// accounts for orientation). This closes a bisected boundary-MPS
// contraction: the top sweep absorbs rows 0..mid-1, the bottom sweep
// absorbs the rest, and CloseWith joins the two fronts at the cut.
func CloseWith(eng backend.Engine, top, bottom *MPS) complex128 {
	if top.Len() != bottom.Len() {
		panic("mps: CloseWith length mismatch")
	}
	env := tensor.Ones(1, 1)
	for i := range top.Sites {
		env = eng.Einsum("ac,apb,cpd->bd", env, top.Sites[i], bottom.Sites[i])
	}
	return env.Item()
}

// Norm returns sqrt(<s|s>).
func (s *MPS) Norm(eng backend.Engine) float64 {
	return math.Sqrt(math.Max(0, real(Inner(eng, s, s))))
}

// ContractChain contracts an MPS whose physical dimensions are all 1 to a
// scalar (the final step of boundary-MPS contraction, Algorithm 2 step 5).
func (s *MPS) ContractChain(eng backend.Engine) complex128 {
	env := tensor.Ones(1)
	for _, t := range s.Sites {
		if t.Dim(1) != 1 {
			panic(fmt.Sprintf("mps: ContractChain requires physical dimension 1, got %v", t.Shape()))
		}
		env = eng.Einsum("a,apb->b", env, t)
	}
	return env.Item()
}

// ApplyMPOExact applies an MPO to the MPS without truncation; bond
// dimensions multiply. Used by the exact PEPS contraction baseline.
func ApplyMPOExact(eng backend.Engine, s *MPS, o *MPO) *MPS {
	if s.Len() != len(o.Sites) {
		panic("mps: MPO length mismatch")
	}
	eng, sp := backend.Scope(eng, "mps.apply_exact")
	sp.SetInt("bond", int64(s.MaxBond()))
	defer sp.End()
	sites := make([]*tensor.Dense, s.Len())
	for i := range s.Sites {
		st, ot := s.Sites[i], o.Sites[i]
		// [a p b] x [c q p d] -> [(a c) q (b d)]
		v := eng.Einsum("apb,cqpd->acqbd", st, ot)
		sh := v.Shape()
		sites[i] = v.Reshape(sh[0]*sh[1], sh[2], sh[3]*sh[4])
	}
	return NewMPS(sites)
}

// ApplyMPOZipUp applies an MPO to the MPS with bond truncation m using
// the zip-up sweep of paper Algorithm 3: the first pair is contracted and
// split by einsumsvd, and the sigma-carrying factor is zipped into the
// next pair. With an Explicit strategy this is the BMPS building block;
// with ImplicitRand it is the IBMPS building block.
func ApplyMPOZipUp(eng backend.Engine, s *MPS, o *MPO, m int, st einsumsvd.Strategy) *MPS {
	n := s.Len()
	if n != len(o.Sites) {
		panic("mps: MPO length mismatch")
	}
	eng, sp := backend.Scope(eng, "mps.zipup")
	sp.SetInt("m", int64(m)).SetInt("bond", int64(s.MaxBond()))
	defer sp.End()
	if n == 1 {
		v := eng.Einsum("apb,cqpd->qbd", s.Sites[0], o.Sites[0])
		sh := v.Shape()
		return NewMPS([]*tensor.Dense{v.Reshape(1, sh[0], sh[1]*sh[2])})
	}
	out := make([]*tensor.Dense, n)
	// First site: contract S_1 O_1 over phys and split. Left boundary
	// bonds (dim 1) are summed out by the einsum inside the strategy.
	a, carry, _ := einsumsvd.MustFactor(st, eng, "apb,cqpd->qx|xbd", m, s.Sites[0], o.Sites[0])
	sh := a.Shape()
	out[0] = a.Reshape(1, sh[0], sh[1])
	for i := 1; i < n-1; i++ {
		// carry[g, b, d] zips with S_i[b, p, e] and O_i[d, q, p, f].
		a, carry, _ = einsumsvd.MustFactor(st, eng, "gbd,bpe,dqpf->gqx|xef", m, carry, s.Sites[i], o.Sites[i])
		out[i] = a
	}
	// Last site: right boundary bonds are dim 1 and summed away.
	v := eng.Einsum("gbd,bpe,dqpf->gq", carry, s.Sites[n-1], o.Sites[n-1])
	sh = v.Shape()
	out[n-1] = v.Reshape(sh[0], sh[1], 1)
	return NewMPS(out)
}

// Compress truncates every internal bond of the MPS to at most m by a
// left-to-right sweep of einsumsvd splits.
func Compress(eng backend.Engine, s *MPS, m int, st einsumsvd.Strategy) *MPS {
	n := s.Len()
	if n == 1 {
		return s.Clone()
	}
	eng, sp := backend.Scope(eng, "mps.compress")
	sp.SetInt("m", int64(m))
	defer sp.End()
	out := make([]*tensor.Dense, n)
	carry := s.Sites[0]
	for i := 0; i < n-1; i++ {
		a, c, _ := einsumsvd.MustFactor(st, eng, "apb,bqc->apx|xqc", m, carry, s.Sites[i+1])
		out[i] = a
		carry = c
	}
	out[n-1] = carry
	return NewMPS(out)
}

// IdentityMPO returns the identity operator on n sites of physical
// dimension d.
func IdentityMPO(n, d int) *MPO {
	sites := make([]*tensor.Dense, n)
	id := tensor.Eye(d)
	for i := range sites {
		sites[i] = id.Reshape(1, d, d, 1).Clone()
	}
	return NewMPO(sites)
}
