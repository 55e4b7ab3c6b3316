package peps

import (
	"math"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// boundary is a two-layer boundary MPS: one tensor per column with axes
// [left bond, bra down-bond, ket down-bond, right bond]. It represents
// the partial contraction of some rows of the <bra|ket> network; the two
// physical legs are kept separate so the bra and ket layers never have to
// be merged (the memory saving of paper section III-B2).
type boundary []*tensor.Dense

// trivialBoundary is the empty partial contraction: all legs dimension 1.
func trivialBoundary(cols int) boundary {
	b := make(boundary, cols)
	for i := range b {
		b[i] = tensor.Ones(1, 1, 1, 1)
	}
	return b
}

// maxBondOf returns the largest left/right bond in the boundary.
func (b boundary) maxBond() int {
	m := 1
	for _, t := range b {
		if t.Dim(0) > m {
			m = t.Dim(0)
		}
		if t.Dim(3) > m {
			m = t.Dim(3)
		}
	}
	return m
}

// conjRow returns the conjugated site tensors of one bra row, the form
// applyTwoLayerRow takes the bra layer in. The per-column conjugates are
// independent, so they fan out across the pool (a task group under the
// span eng carries).
func conjRow(eng backend.Engine, row []*tensor.Dense) []*tensor.Dense {
	conjs := make([]*tensor.Dense, len(row))
	pool.Tasks(backend.SpanOf(eng), "twolayer.conj", len(row), func(c int, _ *obs.Span) { conjs[c] = row[c].Conj() })
	return conjs
}

// applyTwoLayerRow absorbs one row of the <bra|ket> network into the
// boundary from above, truncating bonds to m with the given einsumsvd
// strategy via a zip-up sweep (the two-layer generalization of paper
// Algorithm 3). braConj holds the bra row already conjugated (conjRow),
// so a caller absorbing one bra row under many kets conjugates it once;
// both rows use the site axis order [u, l, d, r, p].
//
// With an ImplicitRand strategy the per-column refactorization applies
// the {carry, boundary site, conj(bra), ket} network as an implicit
// operator — the bra and ket sites are never contracted into an r^2-bond
// MPO tensor, realizing the two-layer IBMPS costs of paper Table II.
func applyTwoLayerRow(eng backend.Engine, s boundary, braConj, ketRow []*tensor.Dense, m int, st einsumsvd.Strategy) boundary {
	eng, sp := backend.Scope(eng, "twolayer.row")
	if sp != nil {
		sp.SetInt("boundary_bond", int64(s.maxBond()))
	}
	defer sp.End()
	cols := len(s)
	out := make(boundary, cols)

	if cols == 1 {
		v := eng.Einsum("buUe,ucdrp,UCDRp->dD", s[0], braConj[0], ketRow[0])
		sh := v.Shape()
		out[0] = v.Reshape(1, sh[0], sh[1], 1)
		return out
	}

	// First column: boundary bonds (b of the boundary site, c/C of the
	// layer sites) have dimension 1 and are summed away inside the spec.
	site, carry, _ := einsumsvd.MustFactor(st, eng,
		"buUe,ucdrp,UCDRp->dDn|nerR", m, s[0], braConj[0], ketRow[0])
	sh := site.Shape()
	out[0] = site.Reshape(1, sh[0], sh[1], sh[2])

	for c := 1; c < cols-1; c++ {
		site, carry, _ = einsumsvd.MustFactor(st, eng,
			"gbcC,buUe,ucdrp,UCDRp->gdDn|nerR", m, carry, s[c], braConj[c], ketRow[c])
		out[c] = site
	}

	// Last column: right boundary bonds are dimension 1.
	last := cols - 1
	v := eng.Einsum("gbcC,buUe,ucdrp,UCDRp->gdD", carry, s[last], braConj[last], ketRow[last])
	sh = v.Shape()
	out[last] = v.Reshape(sh[0], sh[1], sh[2], 1)
	return out
}

// closeBoundaries contracts a top boundary against a bottom boundary that
// share the same physical legs (the cut between two adjacent rows),
// producing the scalar value of the full network.
func closeBoundaries(eng backend.Engine, top, bottom boundary) complex128 {
	env := tensor.Ones(1, 1)
	for c := range top {
		env = eng.Einsum("ac,apqb,cpqd->bd", env, top[c], bottom[c])
	}
	return env.Item()
}

// row returns the site tensors of row r.
func (p *PEPS) row(r int) []*tensor.Dense { return p.sites[r] }

// innerTwoLayer computes <bra|ket> with the two-layer boundary method:
// rows are absorbed into a two-layer boundary MPS from the top, with the
// bra/ket pair of each site left uncontracted inside every einsumsvd.
func innerTwoLayer(bra, ket *PEPS, opt TwoLayerBMPS) complex128 {
	if bra.Rows != ket.Rows || bra.Cols != ket.Cols {
		panic("peps: lattice size mismatch")
	}
	eng, sp := backend.Scope(bra.eng, "bmps.sweep")
	sp.SetStr("algorithm", opt.Name()).SetInt("rows", int64(bra.Rows)).SetInt("cols", int64(bra.Cols))
	defer sp.End()
	scale := complex(math.Exp(bra.LogScale+ket.LogScale), 0)

	// Bisected contraction: a top-down sweep over rows 0..mid-1 and a
	// bottom-up sweep (vertically flipped, the BottomEnvironments
	// construction) over the rest run as two concurrent lattice tasks and
	// meet at the cut. The bisection is applied at every worker count, so
	// results do not depend on the pool size.
	if sts := einsumsvd.Fork(opt.Strategy, 2); bra.Rows >= 2 && sts != nil {
		mid := bra.Rows / 2
		bras, kets := [2]*PEPS{bra, bra.FlipVertical()}, [2]*PEPS{ket, ket.FlipVertical()}
		var swept [2]boundary
		fanOut(eng, "bmps.bisect", 2, func(i int, eng backend.Engine) {
			rows := mid
			if i == 1 {
				rows = bra.Rows - mid
			}
			s := trivialBoundary(bra.Cols)
			for r := 0; r < rows; r++ {
				s = applyTwoLayerRow(eng, s, conjRow(eng, bras[i].row(r)), kets[i].row(r), opt.M, sts[i])
			}
			swept[i] = s
		})
		return closeBoundaries(eng, swept[0], swept[1]) * scale
	}

	s := trivialBoundary(bra.Cols)
	for r := 0; r < bra.Rows; r++ {
		s = applyTwoLayerRow(eng, s, conjRow(eng, bra.row(r)), ket.row(r), opt.M, opt.Strategy)
	}
	v := closeBoundaries(eng, s, trivialBoundary(bra.Cols))
	return v * scale
}

// TopEnvironments returns boundaries tops[0..Rows] where tops[k] is the
// two-layer partial contraction of rows 0..k-1 of <p|p> (tops[0] is
// trivial). These are the cached intermediates of paper section IV-B.
func (p *PEPS) TopEnvironments(m int, st einsumsvd.Strategy) []boundary {
	p, sp := p.scope("peps.environments")
	sp.SetStr("side", "top")
	defer sp.End()
	return p.topEnvironments(m, st)
}

func (p *PEPS) topEnvironments(m int, st einsumsvd.Strategy) []boundary {
	tops := make([]boundary, p.Rows+1)
	tops[0] = trivialBoundary(p.Cols)
	for r := 0; r < p.Rows; r++ {
		tops[r+1] = applyTwoLayerRow(p.eng, tops[r], conjRow(p.eng, p.row(r)), p.row(r), m, st)
	}
	return tops
}

// BottomEnvironments returns boundaries bottoms[0..Rows] where bottoms[k]
// is the partial contraction of rows k..Rows-1 from below (bottoms[Rows]
// is trivial). Physical legs are the up bonds of row k, ordered (bra,
// ket) like the top environments.
func (p *PEPS) BottomEnvironments(m int, st einsumsvd.Strategy) []boundary {
	p, sp := p.scope("peps.environments")
	sp.SetStr("side", "bottom")
	defer sp.End()
	f := p.FlipVertical()
	flipped := f.topEnvironments(m, st)
	bottoms := make([]boundary, p.Rows+1)
	for k := 0; k <= p.Rows; k++ {
		bottoms[k] = flipped[p.Rows-k]
	}
	return bottoms
}
