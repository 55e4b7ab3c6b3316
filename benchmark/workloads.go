package main

import (
	"math"
	"math/cmplx"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/ite"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/tensor"
)

// wrapFn decorates the einsumsvd strategy an operation uses; nil leaves
// it bare. The traced pass passes a countingStrategy constructor.
type wrapFn func(einsumsvd.Strategy) einsumsvd.Strategy

func (w wrapFn) apply(st einsumsvd.Strategy) einsumsvd.Strategy {
	if w == nil {
		return st
	}
	return w(st)
}

// workload is one row of the benchmark: a named, seeded input and the
// public entry point timed on it.
type workload struct {
	name string
	why  string
	// nominalOps is the operation count that fills about twenty seconds
	// at seed speed on two cores; the per-layer passes run fixed
	// fractions of it so their exact counts repeat.
	nominalOps int
	// build generates the seeded input and the operation on it.
	build func(seed int64) *instance
}

// instance is a workload made concrete for one seed.
type instance struct {
	eng    backend.Engine
	grid   *dist.Grid // the Dist engine's grid; nil on dense workloads
	states inputs     // the prepared input in its seeded gauges, bound to eng and never modified

	// op runs operation i on st (one of states, or a rebound copy) and
	// returns the checked scalar and the output state's largest bond.
	op func(st *peps.PEPS, i int, wrap wrapFn) (value float64, maxBond int)

	// calibrate computes the reference values — check and, on the evolve
	// workloads, twinDigits. It is the expensive part of set-up, apart
	// from build so that tests can compare inputs cheaply.
	calibrate func()
	check     check

	// wrapTraced says the traced pass may run its operations through a
	// countingStrategy without changing their results. False for
	// ite_j1j2, whose per-step einsumsvd.Reseed does not see through a
	// wrapper; there only the warm-up operation is wrapped, and the
	// Factor-call count it yields is the same for every operation.
	wrapTraced bool

	// twinDigits, when not NaN, is the workload's accuracy: the update
	// code's state-vector fidelity on a small twin. Otherwise accuracy is
	// the median relative error of the operations against check.ref.
	twinDigits float64

	// applyCircuit and expectation, set on ite_j1j2 only, are the two
	// public calls ite.Evolve composes; the traced pass times them apart.
	applyCircuit func(st *peps.PEPS)
	expectation  func(st *peps.PEPS, i int)
}

// inputs is one physical state in gaugeCopies seeded gauges. Operation i
// runs on copy i mod gaugeCopies, so a run's statistics mix the copies.
type inputs []*peps.PEPS

func (in inputs) pick(i int) *peps.PEPS {
	return in[(i%len(in)+len(in))%len(in)]
}

// rebind returns deep copies of the inputs that compute with eng.
func (in inputs) rebind(eng backend.Engine) inputs {
	out := make(inputs, len(in))
	for k, p := range in {
		out[k] = rebind(p, eng)
	}
	return out
}

// rebind returns a deep copy of p that computes with eng. A PEPS keeps
// its engine for life, so the per-layer passes rebuild the input behind
// their own engine wrapper.
func rebind(p *peps.PEPS, eng backend.Engine) *peps.PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := range sites {
		sites[r] = make([]*tensor.Dense, p.Cols)
		for c := range sites[r] {
			sites[r][c] = p.Site(r, c).Clone()
		}
	}
	q := peps.New(eng, sites)
	q.LogScale = p.LogScale
	return q
}

// gaugeCopies is how many gauges of its input a workload cycles through.
// Jacobi sweep counts, and with them the time of an operation, move by a
// few per cent with the gauge; mixing five gauges in every run keeps the
// run-to-run spread across seeds to a third of what one gauge gives.
const gaugeCopies = 5

// seededGauges returns gaugeCopies copies of base, each in a random
// gauge drawn from the seed.
func seededGauges(base *peps.PEPS, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := make(inputs, gaugeCopies)
	for k := range in {
		in[k] = base.Clone()
		randomGauge(in[k], rng)
	}
	return in
}

// randomGauge inserts a random unitary and its inverse on every bond.
// The physical state — hence every norm, energy, truncation error, Gram
// conditioning and fallback decision — is unchanged up to rounding, while
// every tensor entry changes: seeds vary the numbers the kernels see
// without moving the accuracy the workload is checked against.
func randomGauge(p *peps.PEPS, rng *rand.Rand) {
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if c+1 < p.Cols {
				u := quantum.RandomUnitary(rng, p.Site(r, c).Dim(3))
				p.SetSite(r, c, einsum.MustContract("uldxp,xy->uldyp", p.Site(r, c), u))
				p.SetSite(r, c+1, einsum.MustContract("uxdrp,xy->uydrp", p.Site(r, c+1), u.Conj()))
			}
			if r+1 < p.Rows {
				u := quantum.RandomUnitary(rng, p.Site(r, c).Dim(2))
				p.SetSite(r, c, einsum.MustContract("ulxrp,xy->ulyrp", p.Site(r, c), u))
				p.SetSite(r+1, c, einsum.MustContract("xldrp,xy->yldrp", p.Site(r+1, c), u.Conj()))
			}
		}
	}
}

const iteTau = 0.05

// prepare evolves |+...+> for steps first-order Trotter sweeps of
// exp(-tau H) at bond dimension r — the update half of ite.Evolve, whose
// forced final measurement would cost more than the preparation.
func prepare(eng backend.Engine, h *quantum.Observable, rows, cols, r, steps int) *peps.PEPS {
	st := ite.PlusState(peps.ComputationalZeros(eng, rows, cols))
	gates := h.TrotterGates(complex(-iteTau, 0))
	upd := peps.UpdateOptions{Rank: r, Method: peps.UpdateQR, Normalize: true}
	for i := 0; i < steps; i++ {
		st.ApplyCircuit(gates, upd)
	}
	return st
}

// tebdLayer applies iSWAP to every bond of p with the QR-SVD update of
// paper Algorithm 1, truncating to rank.
func tebdLayer(p *peps.PEPS, rank int, st einsumsvd.Strategy) {
	g := quantum.ISwap()
	opts := peps.UpdateOptions{Rank: rank, Method: peps.UpdateQR, Strategy: st}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if c+1 < p.Cols {
				p.ApplyTwoSite(g, p.SiteIndex(r, c), p.SiteIndex(r, c+1), opts)
			}
			if r+1 < p.Rows {
				p.ApplyTwoSite(g, p.SiteIndex(r, c), p.SiteIndex(r+1, c), opts)
			}
		}
	}
}

// fingerprint is the sum of squared site norms: cheap, sensitive to any
// change of the update, and invariant under the unitary bond gauge in
// which the Householder and Gram orthogonalizations differ.
func fingerprint(p *peps.PEPS) float64 {
	var s float64
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			n := p.Site(r, c).Norm()
			s += n * n
		}
	}
	return s
}

const evolveRank = 6

// evolveStateSeed fixes the random 6x6 state of the evolve workloads; the
// benchmark's seed picks its gauges, as on the prepared states. (Seeding
// the state itself moves the time of an operation by 5% between seeds: the
// share of Gram factorisations that fall back changes with the state.)
const evolveStateSeed = 1

// explicitBoth is the strategy peps.UpdateOptions defaults to; naming it
// lets the traced pass wrap it.
var explicitBoth = einsumsvd.Explicit{Mode: einsumsvd.SigmaBoth}

// twinDigits checks the update code against the state vector on a 3x3
// twin: one evolve layer from |+...+> with the given engine, all 512
// amplitudes compared with the same gates applied to a state vector. No
// bond of the twin outgrows evolveRank within one layer, so nothing is
// truncated and the digits read the numerical agreement of QRSplit,
// einsumsvd and the recombining einsums with exact arithmetic (two layers
// at this rank would instead read the ansatz: 0.09 digits). The error is
// the relative 2-norm distance after the best scalar alignment.
func twinDigits(eng backend.Engine) float64 {
	const rows, cols, n = 3, 3, 9
	tw := ite.PlusState(peps.ComputationalZeros(eng, rows, cols))
	tebdLayer(tw, evolveRank, nil)
	sv := statevector.Zeros(n)
	for q := 0; q < n; q++ {
		sv.ApplyOne(quantum.H(), q)
	}
	g := quantum.ISwap()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				sv.ApplyTwo(g, r*cols+c, r*cols+c+1)
			}
			if r+1 < rows {
				sv.ApplyTwo(g, r*cols+c, (r+1)*cols+c)
			}
		}
	}
	amps := make([]complex128, 1<<n)
	var overlap complex128 // <peps|sv>
	var norm2 float64      // <peps|peps>
	bits := make([]int, n)
	for idx := range amps {
		for q := 0; q < n; q++ {
			bits[q] = idx >> (n - 1 - q) & 1
		}
		a := tw.Amplitude(bits, peps.Exact{})
		amps[idx] = a
		overlap += cmplx.Conj(a) * sv.Amplitude(bits)
		norm2 += real(a)*real(a) + imag(a)*imag(a)
	}
	scale := overlap / complex(norm2, 0)
	var dist2 float64
	for idx, a := range amps {
		d := scale*a - sv.Amp[idx]
		dist2 += real(d)*real(d) + imag(d)*imag(d)
	}
	return digits(math.Sqrt(dist2) / sv.Norm())
}

// buildEvolve is shared by evolve_qr and evolve_gram, which differ only
// in the engine serving Engine.QRSplit.
func buildEvolve(seed int64, eng backend.Engine, grid *dist.Grid, twinEng backend.Engine) *instance {
	inst := &instance{
		eng:        eng,
		grid:       grid,
		states:     seededGauges(peps.Random(eng, rand.New(rand.NewSource(evolveStateSeed)), 6, 6, 2, evolveRank), seed),
		wrapTraced: true,
	}
	inst.op = func(st *peps.PEPS, _ int, wrap wrapFn) (float64, int) {
		c := st.Clone()
		tebdLayer(c, evolveRank, wrap.apply(explicitBoth))
		return fingerprint(c), c.MaxBond()
	}
	inst.calibrate = func() {
		// The reference is the same layer through the Householder engine,
		// so on evolve_gram every operation is checked across engines.
		ref, _ := inst.op(rebind(inst.states[0], backend.NewDense()), 0, nil)
		inst.check = check{ref: ref, tol: 1e-6, maxBond: evolveRank}
		inst.twinDigits = twinDigits(twinEng)
	}
	return inst
}

func tfiStates(eng backend.Engine, r int, seed int64) inputs {
	h := quantum.TransverseFieldIsing(5, 5, 1, 3)
	return seededGauges(prepare(eng, h, 5, 5, r, 20), seed)
}

// sketchRng is the per-operation ImplicitRand stream: seed + op index.
func sketchRng(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)))
}

// The why strings are those of BENCHMARK.json.
var workloads = []workload{
	{
		name:       "evolve_qr",
		why:        "paper Alg. 1 / Fig. 7a: one TEBD layer on a random 6x6 r=6 state; Householder QRSplit and small Jacobi SVDs do ~90% of the work, einsum <10%, the pool nothing",
		nominalOps: 400,
		build: func(seed int64) *instance {
			eng := backend.NewDense()
			return buildEvolve(seed, eng, nil, eng)
		},
	},
	{
		name:       "evolve_gram",
		why:        "paper Alg. 5 / Fig. 7: the same layer with QRSplit served by Gram + EigH through dist metering, so a gain for one orthogonalization that costs the other shows",
		nominalOps: 300,
		build: func(seed int64) *instance {
			grid := dist.NewGrid(dist.Stampede2(64))
			twin := backend.NewDist(dist.NewGrid(dist.Stampede2(64)), true)
			return buildEvolve(seed, backend.NewDist(grid, true), grid, twin)
		},
	},
	{
		name:       "norm_bmps",
		why:        "paper Alg. 2-3 / Fig. 8: BMPS norm (M=9, explicit SVD) of an ITE-prepared TFI 5x5 r=3 state; TruncSVD is >70% of CPU, QRSplit and Orth are never called",
		nominalOps: 150,
		build: func(seed int64) *instance {
			eng := backend.NewDense()
			inst := &instance{eng: eng, states: tfiStates(eng, 3, seed), wrapTraced: true, twinDigits: math.NaN()}
			inst.op = func(st *peps.PEPS, _ int, wrap wrapFn) (float64, int) {
				return st.Norm(peps.BMPS{M: 9, Strategy: wrap.apply(einsumsvd.Explicit{})}), 0
			}
			inst.calibrate = func() {
				ref := inst.states[0].Norm(peps.BMPS{M: 18, Strategy: einsumsvd.Explicit{}})
				inst.check = check{ref: ref, tol: 0.05}
			}
			return inst
		},
	},
	{
		name:       "norm_ibmps",
		why:        "paper Alg. 4 / Table II: two-layer IBMPS norm (M=16) of the same TFI preparation at r=4; einsum and Orth do the work and TruncSVD must never run (RandSVD fallback ratio 0)",
		nominalOps: 130,
		build: func(seed int64) *instance {
			eng := backend.NewDense()
			inst := &instance{eng: eng, states: tfiStates(eng, 4, seed), wrapTraced: true, twinDigits: math.NaN()}
			inst.op = func(st *peps.PEPS, i int, wrap wrapFn) (float64, int) {
				ir := einsumsvd.ImplicitRand{NIter: 1, Oversample: 4, Rng: sketchRng(seed, i)}
				return st.Norm(peps.TwoLayerBMPS{M: 16, Strategy: wrap.apply(ir)}), 0
			}
			inst.calibrate = func() {
				ir := einsumsvd.ImplicitRand{NIter: 2, Oversample: 8, Rng: sketchRng(seed, 0)}
				ref := inst.states[0].Norm(peps.TwoLayerBMPS{M: 32, Strategy: ir})
				inst.check = check{ref: ref, tol: 0.05, noFallback: true}
			}
			return inst
		},
	},
	{
		name:       "ite_j1j2",
		why:        "paper sec. IV-B / Fig. 13: one ite.Evolve step with cached energy measurement on J1-J2 4x4 (r=2, m=4); ~6000 small einsums, SWAP-routed terms and pool task groups dominate",
		nominalOps: 150,
		build: func(seed int64) *instance {
			const r, m = 2, 4
			eng := backend.NewDense()
			h := quantum.J1J2Heisenberg(4, 4, quantum.PaperJ1J2Params())
			inst := &instance{
				eng:        eng,
				states:     seededGauges(prepare(eng, h, 4, 4, r, 20), seed),
				twinDigits: math.NaN(),
			}
			inst.op = func(st *peps.PEPS, i int, wrap wrapFn) (float64, int) {
				opts := ite.Options{Tau: iteTau, Steps: 1, EvolutionRank: r, ContractionRank: m,
					MeasureEvery: 1, UseCache: true, Seed: seed + int64(i)}
				if wrap != nil {
					// ite.Evolve's nil-Strategy default, made explicit so it can be wrapped.
					opts.Strategy = wrap(einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(opts.Seed + 1))})
				}
				res := ite.Evolve(st.Clone(), h, opts)
				return res.Energies[0], res.Final.MaxBond()
			}
			gates := h.TrotterGates(complex(-iteTau, 0))
			upd := peps.UpdateOptions{Rank: r, Method: peps.UpdateQR, Normalize: true}
			inst.applyCircuit = func(st *peps.PEPS) { st.ApplyCircuit(gates, upd) }
			inst.expectation = func(st *peps.PEPS, i int) {
				st.EnergyPerSite(h, peps.ExpectationOptions{M: m, UseCache: true,
					Strategy: einsumsvd.ImplicitRand{Rng: sketchRng(seed, i)}})
			}
			inst.calibrate = func() {
				// The update is deterministic, so every operation measures
				// the same evolved state; its energy by the uncached path
				// with an explicit SVD at M=64 (past every bond this lattice
				// can reach, hence exact) is the reference.
				evolved := inst.states[0].Clone()
				inst.applyCircuit(evolved)
				ref := evolved.EnergyPerSite(h, peps.ExpectationOptions{M: 64, Strategy: einsumsvd.Explicit{}})
				inst.check = check{ref: ref, tol: 0.05, maxBond: r}
			}
			return inst
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
