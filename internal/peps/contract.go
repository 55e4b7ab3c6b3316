package peps

import (
	"fmt"
	"math"
	"math/cmplx"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/mps"
	"gokoala/internal/tensor"
)

// ContractOption selects a PEPS contraction algorithm (paper sections III
// and IV).
type ContractOption interface {
	// Name identifies the option in benchmark output.
	Name() string
}

// Exact contracts without approximation by absorbing rows into a boundary
// MPS with exploding bond dimension (the baseline of paper Figure 8,
// following reference [12]). Exponential cost in the lattice height.
type Exact struct{}

func (Exact) Name() string { return "exact" }

// BMPS is boundary-MPS contraction (paper Algorithm 2) with the zip-up
// MPO application of Algorithm 3. With an Explicit strategy this is the
// paper's "BMPS"; with ImplicitRand it is "IBMPS". For inner products the
// two layers are merged site-by-site into a one-layer network first
// (the standard approach of paper section III-B2).
type BMPS struct {
	// M is the truncation bond dimension of the boundary MPS.
	M int
	// Strategy is the einsumsvd implementation; Explicit ~ BMPS,
	// ImplicitRand ~ IBMPS.
	Strategy einsumsvd.Strategy
}

func (b BMPS) Name() string {
	if _, ok := b.Strategy.(einsumsvd.ImplicitRand); ok {
		return "ibmps"
	}
	return "bmps"
}

// TwoLayerBMPS contracts an inner product keeping bra and ket layers
// implicit inside the einsumsvd operator (paper section III-B2 and
// Table II "two-layer IBMPS"). Only applicable to two-layer contractions;
// one-layer contraction falls back to BMPS behaviour.
type TwoLayerBMPS struct {
	M        int
	Strategy einsumsvd.Strategy
}

func (b TwoLayerBMPS) Name() string {
	if _, ok := b.Strategy.(einsumsvd.ImplicitRand); ok {
		return "2layer-ibmps"
	}
	return "2layer-bmps"
}

// ContractScalar contracts a PEPS with physical dimension one to its
// scalar value (one-layer contraction), including the global scale
// factor. Rows are absorbed top to bottom into a boundary MPS.
func (p *PEPS) ContractScalar(opt ContractOption) complex128 {
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if p.sites[r][c].Dim(4) != 1 {
				panic(fmt.Sprintf("peps: ContractScalar requires physical dimension 1 at (%d,%d)", r, c))
			}
		}
	}
	p, sp := p.scope("bmps.sweep")
	sp.SetStr("algorithm", opt.Name()).SetInt("rows", int64(p.Rows)).SetInt("cols", int64(p.Cols))
	defer sp.End()

	var m int
	var st einsumsvd.Strategy
	switch v := opt.(type) {
	case Exact:
		// The exact baseline stays a single top-down sweep: bisecting
		// would halve the exponent of its exponential cost and distort the
		// scaling the Figure 8 comparison measures.
	case BMPS:
		m, st = v.M, v.Strategy
	case TwoLayerBMPS:
		m, st = v.M, v.Strategy
	default:
		panic(fmt.Sprintf("peps: unsupported contract option %T", opt))
	}

	// Truncated contractions bisect: a top-down and a (flipped) bottom-up
	// sweep run as two concurrent lattice tasks and meet at the cut. The
	// bisection is applied at every worker count, so results do not depend
	// on the pool size.
	if sts := einsumsvd.Fork(st, 2); m > 0 && p.Rows >= 2 && sts != nil {
		mid := p.Rows / 2
		halves := [2]*PEPS{p, p.FlipVertical()}
		var swept [2]*mps.MPS
		fanOut(p.eng, "bmps.bisect", 2, func(i int, eng backend.Engine) {
			h, rows := halves[i].on(eng), mid
			if i == 1 {
				rows = p.Rows - mid
			}
			s := h.rowMPS(0)
			for r := 1; r < rows; r++ {
				s = mps.ApplyMPOZipUp(eng, s, h.rowMPO(r), m, sts[i])
			}
			swept[i] = s
		})
		// The top half carries the down bonds of row mid-1, the bottom half
		// the up bonds of row mid — the same cut, joined without conjugation.
		return mps.CloseWith(p.eng, swept[0], swept[1]) * complex(math.Exp(p.LogScale), 0)
	}

	s := p.rowMPS(0)
	for r := 1; r < p.Rows; r++ {
		o := p.rowMPO(r)
		switch v := opt.(type) {
		case Exact:
			s = mps.ApplyMPOExact(p.eng, s, o)
		case BMPS:
			s = mps.ApplyMPOZipUp(p.eng, s, o, v.M, v.Strategy)
		case TwoLayerBMPS:
			s = mps.ApplyMPOZipUp(p.eng, s, o, v.M, v.Strategy)
		}
	}
	// After the last row the MPS physical legs are the bottom boundary
	// bonds (dimension one).
	return s.ContractChain(p.eng) * complex(math.Exp(p.LogScale), 0)
}

// rowMPS converts row 0 (physical dims 1) into a boundary MPS whose
// physical legs are the row's down bonds.
func (p *PEPS) rowMPS(r int) *mps.MPS {
	sites := make([]*tensor.Dense, p.Cols)
	for c := 0; c < p.Cols; c++ {
		t := p.sites[r][c]
		// [u=1, l, d, r, p=1] -> [l, d, r]
		sites[c] = p.eng.Einsum("uldrp->ldr", t)
	}
	return mps.NewMPS(sites)
}

// rowMPO converts row r (physical dims 1) into an MPO acting downward:
// site [l, d(out), u(in), r].
func (p *PEPS) rowMPO(r int) *mps.MPO {
	sites := make([]*tensor.Dense, p.Cols)
	for c := 0; c < p.Cols; c++ {
		t := p.sites[r][c]
		sites[c] = p.eng.Einsum("uldrp->ldur", t)
	}
	return mps.NewMPO(sites)
}

// Amplitude returns the amplitude <bits|psi> computed by projecting the
// physical legs and contracting the resulting one-layer network.
func (p *PEPS) Amplitude(bits []int, opt ContractOption) complex128 {
	return p.Project(bits).ContractScalar(opt)
}

// MergeLayers builds the one-layer network of the inner product <p|q>:
// each site is conj(p-site) contracted with the q-site over the physical
// leg, with bond pairs merged (bond dimensions multiply). This is the
// explicit two-layer-to-one-layer reduction whose O(r1^4 r2^4) memory the
// two-layer method avoids.
func MergeLayers(bra, ket *PEPS) *PEPS {
	if bra.Rows != ket.Rows || bra.Cols != ket.Cols {
		panic("peps: lattice size mismatch")
	}
	eng, sp := backend.Scope(bra.eng, "peps.merge_layers")
	defer sp.End()
	sites := make([][]*tensor.Dense, bra.Rows)
	for r := 0; r < bra.Rows; r++ {
		sites[r] = make([]*tensor.Dense, bra.Cols)
	}
	// Per-site merges are independent; fan them out across the pool.
	fanOut(eng, "peps.merge", bra.Rows*bra.Cols, func(i int, eng backend.Engine) {
		r, c := i/bra.Cols, i%bra.Cols
		a := bra.sites[r][c].Conj()
		b := ket.sites[r][c]
		m := eng.Einsum("ULDRp,uldrp->UuLlDdRr", a, b)
		sh := m.Shape()
		sites[r][c] = m.Reshape(sh[0]*sh[1], sh[2]*sh[3], sh[4]*sh[5], sh[6]*sh[7], 1)
	})
	out := New(bra.eng, sites) // not the scoped engine: out outlives this span
	out.LogScale = bra.LogScale + ket.LogScale
	return out
}

// Inner returns <p|q> with the selected contraction algorithm. Exact and
// BMPS merge the two layers into a one-layer network first; TwoLayerBMPS
// keeps the layers implicit (see twolayer.go).
func (p *PEPS) Inner(q *PEPS, opt ContractOption) complex128 {
	p, sp := p.scope("peps.inner")
	sp.SetStr("algorithm", opt.Name())
	defer sp.End()
	if tl, ok := opt.(TwoLayerBMPS); ok {
		return innerTwoLayer(p, q, tl)
	}
	return MergeLayers(p, q).ContractScalar(opt)
}

// Norm returns sqrt(<p|p>).
func (p *PEPS) Norm(opt ContractOption) float64 {
	v := p.Inner(p, opt)
	return math.Sqrt(math.Max(0, real(v)))
}

// NormalizedInner returns <p|q> / (|p| |q|) — phases included — useful for
// fidelity studies.
func (p *PEPS) NormalizedInner(q *PEPS, opt ContractOption) complex128 {
	ip := p.Inner(q, opt)
	np, nq := p.Norm(opt), q.Norm(opt)
	if np == 0 || nq == 0 {
		return 0
	}
	return ip / complex(np*nq, 0)
}

// RelativeError returns |a-b| / |b|, the accuracy metric of paper
// Figure 10.
func RelativeError(approx, exact complex128) float64 {
	if exact == 0 {
		return cmplx.Abs(approx)
	}
	return cmplx.Abs(approx-exact) / cmplx.Abs(exact)
}
