package peps

import (
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// UpdateMethod selects the two-site operator application algorithm.
type UpdateMethod int

const (
	// UpdateQR is paper Algorithm 1: QR both site tensors, refactorize
	// the small R-G-R network, multiply back. O(d^2 r^5) time.
	UpdateQR UpdateMethod = iota
	// UpdateDirect contracts the full two-site network and refactorizes
	// it in one einsumsvd. O(d^3 r^9)-style cost; the baseline the QR
	// update improves on.
	UpdateDirect
)

// UpdateOptions configures two-site operator application.
type UpdateOptions struct {
	// Rank caps the bond dimension after the update; 0 means no
	// truncation (exact application, bond grows).
	Rank int
	// Method selects QR-SVD (default) or the direct update.
	Method UpdateMethod
	// Strategy is the einsumsvd strategy for the refactorization;
	// nil means explicit truncated SVD with balanced sigma.
	Strategy einsumsvd.Strategy
	// Normalize rescales the updated site tensors to unit Frobenius norm,
	// folding the factor into the state's LogScale. Required for long
	// imaginary-time evolutions, harmless elsewhere.
	Normalize bool
}

func (o UpdateOptions) strategy() einsumsvd.Strategy {
	if o.Strategy != nil {
		return o.Strategy
	}
	return einsumsvd.Explicit{Mode: einsumsvd.SigmaBoth}
}

// exactRank is the sentinel passed to einsumsvd for untruncated splits;
// the SVD clamps it to the true matrix rank bound.
const exactRank = 1 << 30

func (o UpdateOptions) rank() int {
	if o.Rank <= 0 {
		return exactRank
	}
	return o.Rank
}

// denseKernel runs the update on a backend.Engine, refactorizing with st.
type denseKernel struct {
	eng backend.Engine
	st  einsumsvd.Strategy
}

func (k denseKernel) einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return k.eng.Einsum(spec, ops...)
}

func (k denseKernel) qrSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	return k.eng.QRSplit(t, leftAxes)
}

func (k denseKernel) factor(spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64) {
	return einsumsvd.MustFactorTrunc(k.st, k.eng, spec, rank, ops...)
}

func (k denseKernel) scope(name string) (kernel[*tensor.Dense], *obs.Span) {
	eng, sp := backend.Scope(k.eng, name)
	if sp == nil {
		return nil, nil
	}
	k.eng = eng
	return k, sp
}

func (denseKernel) gate4(g *tensor.Dense) *tensor.Dense { return quantum.Gate4(g) }

func (denseKernel) swap() *tensor.Dense { return quantum.Gate4(quantum.SWAP()) }

func (p *PEPS) updater(opts UpdateOptions) *updater[*tensor.Dense] {
	return newUpdater(&p.lattice, denseKernel{p.eng, opts.strategy()}, updateMethodName(opts.Method), opts)
}

// ApplyTwoSite applies a two-site gate (4x4 matrix or [2,2,2,2] tensor
// over (site1, site2)) to two lattice sites. Adjacent sites are updated
// directly (paper equation 4); non-adjacent sites are routed with SWAP
// chains as described in paper section II-C1.
func (p *PEPS) ApplyTwoSite(g *tensor.Dense, site1, site2 int, opts UpdateOptions) {
	p.LogScale += p.updater(opts).twoSite(g, site1, site2)
}

// updateMethodName labels the update algorithm in trace output.
func updateMethodName(m UpdateMethod) string {
	if m == UpdateDirect {
		return "direct"
	}
	return "qr-svd"
}

// ApplyGate dispatches a one- or two-site TrotterGate.
func (p *PEPS) ApplyGate(g quantum.TrotterGate, opts UpdateOptions) {
	p.LogScale += p.applyGateDelta(g, opts)
}

// applyGateDelta is ApplyGate returning the LogScale delta instead of
// folding it in (see twoSite).
func (p *PEPS) applyGateDelta(g quantum.TrotterGate, opts UpdateOptions) float64 {
	return p.updater(opts).gate(g.Sites, g.Gate)
}

// ApplyCircuit applies a sequence of gates with the same options. Gates
// on disjoint bonds are applied concurrently in checkerboard waves (see
// gateWaves); results are bit-identical to any worker count because the
// wave schedule depends only on the gate list, per-gate strategies are
// forked deterministically, and LogScale deltas are summed in gate
// order.
func (p *PEPS) ApplyCircuit(gates []quantum.TrotterGate, opts UpdateOptions) {
	sts := einsumsvd.Fork(opts.Strategy, len(gates))
	if len(gates) < 2 || sts == nil {
		for _, g := range gates {
			p.ApplyGate(g, opts)
		}
		return
	}
	// q shares p's sites; the scale deltas come back to be summed on p.
	q, sp := p.scope("peps.circuit")
	sp.SetInt("gates", int64(len(gates)))
	defer sp.End()
	deltas := make([]float64, len(gates))
	apply := func(q *PEPS, i int) {
		o := opts
		o.Strategy = sts[i]
		deltas[i] = q.applyGateDelta(gates[i], o)
	}
	for _, wave := range p.gateWaves(gates) {
		if len(wave) == 1 {
			apply(q, wave[0])
			continue
		}
		fanOut(q.eng, "peps.circuit.wave", len(wave), func(j int, eng backend.Engine) {
			apply(q.on(eng), wave[j])
		})
	}
	for _, d := range deltas {
		p.LogScale += d
	}
}

// RandomGateUpdateOptions returns update options suitable for random
// circuit evolution: exact QR updates with a deterministic sub-rng.
func RandomGateUpdateOptions(rank int, rng *rand.Rand, implicit bool) UpdateOptions {
	opts := UpdateOptions{Rank: rank, Method: UpdateQR}
	if implicit {
		opts.Strategy = einsumsvd.ImplicitRand{Mode: einsumsvd.SigmaBoth, Rng: rng}
	}
	return opts
}
