package peps

import (
	"fmt"
	"math"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/health"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// ExpectationOptions configures expectation-value evaluation.
type ExpectationOptions struct {
	// M is the truncation bond dimension for boundary contractions.
	M int
	// Strategy is the einsumsvd strategy for boundary contractions
	// (Explicit ~ BMPS, ImplicitRand ~ IBMPS).
	Strategy einsumsvd.Strategy
	// UseCache enables the intermediate-caching scheme of paper section
	// IV-B: the row environments of <psi|psi> are computed once (two full
	// two-layer sweeps) and every local term is then evaluated with a
	// strip contraction.
	UseCache bool
}

// Expectation returns the Rayleigh quotient <psi|H|psi> / <psi|psi> for a
// Hamiltonian given as a sum of local terms.
func (p *PEPS) Expectation(h *quantum.Observable, opts ExpectationOptions) complex128 {
	if opts.M <= 0 {
		panic("peps: ExpectationOptions.M must be positive")
	}
	if opts.Strategy == nil {
		panic("peps: ExpectationOptions.Strategy must be set")
	}
	if ms := h.MaxSite(); ms >= p.Rows*p.Cols {
		panic(fmt.Sprintf("peps: observable touches site %d beyond lattice size %d", ms, p.Rows*p.Cols))
	}
	p, sp := p.scope("peps.expectation")
	sp.SetInt("terms", int64(len(h.Terms)))
	defer sp.End()
	var v complex128
	if opts.UseCache {
		sp.SetStr("mode", "cached")
		v = p.expectationCached(h, opts)
	} else {
		sp.SetStr("mode", "direct")
		v = p.expectationDirect(h, opts)
	}
	// Stage guard at the observable boundary: a NaN here is the first
	// user-visible symptom of a poisoned contraction upstream.
	health.CheckValue("peps.expectation", v)
	return v
}

// EnergyPerSite returns the real part of the expectation divided by the
// number of lattice sites, the quantity plotted in paper Figures 13-14.
func (p *PEPS) EnergyPerSite(h *quantum.Observable, opts ExpectationOptions) float64 {
	return real(p.Expectation(h, opts)) / float64(p.Rows*p.Cols)
}

// productTerm is one product of on-site operators, coef * ops[0] (x)
// ops[1], acting on sites[k] with ops[k]: the form every observable term
// is evaluated in. A product acts on physical legs alone, so |phi> =
// ops |psi> has the bonds of |psi> and the strips below contract it at
// the state's own bond dimension.
type productTerm struct {
	coef  complex128
	sites []int
	ops   []*tensor.Dense
}

// productTerms expands the observable into on-site products: a one-site
// term is one already, a two-site term becomes the K <= 4 products of its
// operator-Schmidt decomposition (K = 1 for the Pauli products of
// J1J2Heisenberg and TransverseFieldIsing, 3 for the U(1) pair
// operator). Applying the 4x4 operator itself with an untruncated direct
// update would instead return the shared bond at min(rows, cols) of the
// two-site matricization — 16 on an r = 2 bond, all but K*r of them zero
// singular values — and non-adjacent sites would pay that three times
// over through SWAP routing. Terms sharing one operator tensor share its
// decomposition.
func productTerms(h *quantum.Observable) []productTerm {
	type schmidt struct{ as, bs []*tensor.Dense }
	memo := map[*tensor.Dense]schmidt{}
	prods := make([]productTerm, 0, len(h.Terms))
	for _, t := range h.Terms {
		switch len(t.Sites) {
		case 1:
			prods = append(prods, productTerm{t.Coef, t.Sites, []*tensor.Dense{t.Op}})
		case 2:
			d, ok := memo[t.Op]
			if !ok {
				d.as, d.bs = quantum.OperatorSchmidt(t.Op)
				memo[t.Op] = d
			}
			for k := range d.as {
				prods = append(prods, productTerm{t.Coef, t.Sites, []*tensor.Dense{d.as[k], d.bs[k]}})
			}
		default:
			panic("peps: unsupported term arity")
		}
	}
	return prods
}

// applyProduct applies one product term to a shallow clone of the state,
// returning |phi> = ops |psi> (coefficient not included).
func (p *PEPS) applyProduct(t productTerm) *PEPS {
	phi := p.ShallowClone()
	for k, op := range t.ops {
		phi.ApplyOneSite(op, t.sites[k])
	}
	return phi
}

// expectationDirect evaluates each product term with a full two-layer
// contraction (paper equation 5 without caching): one contraction for
// the norm and one per product. The norm and all products are
// independent lattice tasks; they run concurrently with per-task forked
// strategies and a fixed-order reduction, so results are bit-identical
// for every worker count.
func (p *PEPS) expectationDirect(h *quantum.Observable, opts ExpectationOptions) complex128 {
	prods := productTerms(h)
	n := len(prods)
	sts := einsumsvd.Fork(opts.Strategy, 1+n)
	if sts == nil {
		opt := TwoLayerBMPS{M: opts.M, Strategy: opts.Strategy}
		den := p.Inner(p, opt)
		health.CheckValue("peps.norm", den)
		var num complex128
		for _, t := range prods {
			num += t.coef * p.Inner(p.applyProduct(t), opt)
		}
		return num / den
	}
	// Task 0 is the norm, task 1+i the i-th product.
	vals := make([]complex128, 1+n)
	fanOut(p.eng, "peps.expectation.terms", 1+n, func(i int, eng backend.Engine) {
		q, opt := p.on(eng), TwoLayerBMPS{M: opts.M, Strategy: sts[i]}
		if i == 0 {
			vals[0] = q.Inner(q, opt)
		} else {
			t := prods[i-1]
			vals[i] = t.coef * q.Inner(q.applyProduct(t), opt)
		}
	})
	den := vals[0]
	health.CheckValue("peps.norm", den)
	var num complex128
	for _, v := range vals[1:] {
		num += v
	}
	return num / den
}

// expectationCached implements paper section IV-B: two full sweeps build
// the per-row top and bottom environments of <psi|psi>, and every
// product term is evaluated by contracting only the strip of rows it
// touches. The two environment sweeps run concurrently, and so do the
// per-product strip contractions; see expectationDirect for the
// determinism scheme.
func (p *PEPS) expectationCached(h *quantum.Observable, opts ExpectationOptions) complex128 {
	prods := productTerms(h)
	n := len(prods)
	sts := einsumsvd.Fork(opts.Strategy, 2+n)
	var tops, bottoms []boundary
	if sts == nil {
		// Strategies that cannot be forked for concurrent use evaluate
		// everything in sequence on the one strategy.
		tops = p.TopEnvironments(opts.M, opts.Strategy)
		bottoms = p.BottomEnvironments(opts.M, opts.Strategy)
	} else {
		fanOut(p.eng, "peps.expectation.env", 2, func(i int, eng backend.Engine) {
			if i == 0 {
				tops = p.on(eng).TopEnvironments(opts.M, sts[0])
			} else {
				bottoms = p.on(eng).BottomEnvironments(opts.M, sts[1])
			}
		})
	}
	den := closeBoundaries(p.eng, tops[0], bottoms[0])
	health.CheckValue("peps.norm", den)

	// Every strip has the same bra: conjugate the state once, not once
	// per product and row.
	bra := make([][]*tensor.Dense, p.Rows)
	for r := range bra {
		bra[r] = conjRow(p.eng, p.row(r))
	}
	strip := func(eng backend.Engine, t productTerm, st einsumsvd.Strategy) complex128 {
		rlo, rhi := p.termRowSpan(t.sites)
		phi := p.on(eng).applyProduct(t)
		s := tops[rlo]
		for r := rlo; r <= rhi; r++ {
			s = applyTwoLayerRow(eng, s, bra[r], phi.row(r), opts.M, st)
		}
		return t.coef * closeBoundaries(eng, s, bottoms[rhi+1])
	}
	var num complex128
	if sts == nil {
		for _, t := range prods {
			num += strip(p.eng, t, opts.Strategy)
		}
		return num / den
	}
	vals := make([]complex128, n)
	fanOut(p.eng, "peps.expectation.terms", n, func(i int, eng backend.Engine) {
		vals[i] = strip(eng, prods[i], sts[2+i])
	})
	for _, v := range vals {
		num += v
	}
	return num / den
}

// termRowSpan returns the inclusive row range spanned by a term's sites:
// the rows in which op |psi> differs from |psi>, hence the strip a cached
// evaluation has to rebuild.
func (p *PEPS) termRowSpan(sites []int) (int, int) {
	rlo, rhi := p.Rows, -1
	for _, s := range sites {
		r, _ := p.Coords(s)
		if r < rlo {
			rlo = r
		}
		if r > rhi {
			rhi = r
		}
	}
	return rlo, rhi
}

// SanityCheckNorm reports whether the state's norm is finite and positive
// under the given contraction settings; useful in long evolutions.
func (p *PEPS) SanityCheckNorm(opts ExpectationOptions) bool {
	v := real(p.Inner(p, TwoLayerBMPS{M: opts.M, Strategy: opts.Strategy}))
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}
