// Package gokoala's top-level benchmarks wrap the kernel of every table
// and figure of the paper's evaluation section in a testing.B benchmark,
// so `go test -bench=. -benchmem` exercises each experiment's hot path.
// The full sweeps with report tables are produced by cmd/koala-bench;
// DESIGN.md section 4 maps each benchmark to its experiment.
package gokoala_test

import (
	"io"
	"math/rand"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/bench"
	"gokoala/internal/dist"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/ite"
	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/rqc"
	"gokoala/internal/statevector"
	"gokoala/internal/vqe"
)

func explicitStrategy() einsumsvd.Strategy { return einsumsvd.Explicit{} }

func implicitStrategy(seed int64) einsumsvd.Strategy {
	return einsumsvd.ImplicitRand{NIter: 1, Oversample: 4, Rng: rand.New(rand.NewSource(seed))}
}

// tebdLayer applies one layer of two-site gates on all adjacent pairs.
func tebdLayer(p *peps.PEPS, opts peps.UpdateOptions) {
	g := quantum.ISwap()
	for r := 0; r < p.Rows; r++ {
		for c := 0; c+1 < p.Cols; c++ {
			p.ApplyTwoSite(g, p.SiteIndex(r, c), p.SiteIndex(r, c+1), opts)
		}
	}
	for r := 0; r+1 < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			p.ApplyTwoSite(g, p.SiteIndex(r, c), p.SiteIndex(r+1, c), opts)
		}
	}
}

// --- Table II: contraction method flops/time at matched accuracy ---

func benchmarkInner(b *testing.B, opt func(seed int64) peps.ContractOption) {
	b.Helper()
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(1))
	state := peps.Random(eng, rng, 4, 4, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.Inner(state, opt(int64(i)))
	}
}

func BenchmarkTable2_BMPS(b *testing.B) {
	benchmarkInner(b, func(seed int64) peps.ContractOption {
		return peps.BMPS{M: 9, Strategy: explicitStrategy()}
	})
}

func BenchmarkTable2_IBMPS(b *testing.B) {
	benchmarkInner(b, func(seed int64) peps.ContractOption {
		return peps.BMPS{M: 9, Strategy: implicitStrategy(seed)}
	})
}

func BenchmarkTable2_TwoLayerIBMPS(b *testing.B) {
	benchmarkInner(b, func(seed int64) peps.ContractOption {
		return peps.TwoLayerBMPS{M: 9, Strategy: implicitStrategy(seed)}
	})
}

// --- Figure 7: TEBD evolution layer across engine variants ---

func benchmarkEvolution(b *testing.B, mk func() backend.Engine, bond int) {
	b.Helper()
	eng := mk()
	rng := rand.New(rand.NewSource(2))
	state := peps.Random(eng, rng, 6, 6, 2, bond)
	opts := peps.UpdateOptions{Rank: bond, Method: peps.UpdateQR}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tebdLayer(state.Clone(), opts)
	}
}

func BenchmarkFig7a_DenseQRSVD(b *testing.B) {
	benchmarkEvolution(b, func() backend.Engine { return backend.NewDense() }, 4)
}

func BenchmarkFig7a_DistQRSVD(b *testing.B) {
	benchmarkEvolution(b, func() backend.Engine {
		return backend.NewDist(dist.NewGrid(dist.Stampede2(64)), false)
	}, 4)
}

func BenchmarkFig7a_DistLocalGramQR(b *testing.B) {
	benchmarkEvolution(b, func() backend.Engine {
		return backend.NewDist(dist.NewGrid(dist.Stampede2(64)), true)
	}, 4)
}

func BenchmarkFig7b_DistLocalGramQRSVD16Nodes(b *testing.B) {
	benchmarkEvolution(b, func() backend.Engine {
		return &backend.Dist{Grid: dist.NewGrid(dist.Stampede2(1024)), UseGram: true, LocalSVD: true}
	}, 4)
}

// --- Figure 8: contraction algorithms as bond dimension grows ---

func benchmarkContraction(b *testing.B, bond int, opt func(seed int64) peps.ContractOption) {
	b.Helper()
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(3))
	net := peps.RandomNoPhys(eng, rng, 6, 6, bond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ContractScalar(opt(int64(i)))
	}
}

func BenchmarkFig8a_Exact(b *testing.B) {
	benchmarkContraction(b, 3, func(int64) peps.ContractOption { return peps.Exact{} })
}

func BenchmarkFig8a_BMPS(b *testing.B) {
	benchmarkContraction(b, 8, func(int64) peps.ContractOption {
		return peps.BMPS{M: 8, Strategy: explicitStrategy()}
	})
}

func BenchmarkFig8a_IBMPS(b *testing.B) {
	benchmarkContraction(b, 8, func(seed int64) peps.ContractOption {
		return peps.BMPS{M: 8, Strategy: implicitStrategy(seed)}
	})
}

func BenchmarkFig8b_IBMPSDist(b *testing.B) {
	grid := dist.NewGrid(dist.Stampede2(1024))
	eng := backend.NewDist(grid, true)
	rng := rand.New(rand.NewSource(4))
	net := peps.RandomNoPhys(eng, rng, 6, 6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ContractScalar(peps.BMPS{M: 8, Strategy: implicitStrategy(int64(i))})
	}
}

// --- Figure 9: expectation values with and without caching ---

func benchmarkExpectation(b *testing.B, useCache bool) {
	b.Helper()
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(5))
	state := peps.Random(eng, rng, 5, 5, 2, 2)
	obs := quantum.TransverseFieldIsing(5, 5, -1, -3.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.Expectation(obs, peps.ExpectationOptions{
			M:        4,
			Strategy: implicitStrategy(int64(i)),
			UseCache: useCache,
		})
	}
}

func BenchmarkFig9_ExpectationCached(b *testing.B)   { benchmarkExpectation(b, true) }
func BenchmarkFig9_ExpectationUncached(b *testing.B) { benchmarkExpectation(b, false) }

// --- Figure 10: RQC amplitude contraction ---

func BenchmarkFig10_RQCAmplitude(b *testing.B) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(6))
	circ := rqc.Generate(rng, 4, 4, 4)
	state := peps.ComputationalZeros(eng, 4, 4)
	for _, g := range circ.Gates {
		state.ApplyGate(g, peps.UpdateOptions{Rank: 0, Method: peps.UpdateQR})
	}
	proj := state.Project(rqc.RandomBits(rng, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proj.ContractScalar(peps.BMPS{M: 8, Strategy: implicitStrategy(int64(i))})
	}
}

// --- Figures 11/12: scaling kernels (the SPMD-metered workloads) ---

func BenchmarkFig11_StrongScalingKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := dist.NewGrid(dist.Stampede2(256))
		eng := backend.NewDist(grid, true)
		rng := rand.New(rand.NewSource(7))
		net := peps.RandomNoPhys(eng, rng, 6, 6, 4)
		net.ContractScalar(peps.BMPS{M: 8, Strategy: implicitStrategy(int64(i))})
	}
}

func BenchmarkFig12_WeakScalingKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := dist.NewGrid(dist.Stampede2(256))
		eng := backend.NewDist(grid, true)
		rng := rand.New(rand.NewSource(8))
		state := peps.Random(eng, rng, 6, 6, 2, 6)
		tebdLayer(state, peps.UpdateOptions{Rank: 6, Method: peps.UpdateQR})
	}
}

// --- Figure 13: imaginary time evolution step ---

func BenchmarkFig13_ITEStep(b *testing.B) {
	obs := quantum.J1J2Heisenberg(4, 4, quantum.PaperJ1J2Params())
	eng := backend.NewDense()
	state := ite.PlusState(peps.ComputationalZeros(eng, 4, 4))
	gates := obs.TrotterGates(complex(-0.05, 0))
	opts := peps.UpdateOptions{Rank: 2, Method: peps.UpdateQR, Normalize: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.ApplyCircuit(gates, opts)
	}
}

func BenchmarkFig13_EnergyMeasurement(b *testing.B) {
	obs := quantum.J1J2Heisenberg(4, 4, quantum.PaperJ1J2Params())
	eng := backend.NewDense()
	state := ite.PlusState(peps.ComputationalZeros(eng, 4, 4))
	state.ApplyCircuit(obs.TrotterGates(complex(-0.05, 0)), peps.UpdateOptions{Rank: 2, Method: peps.UpdateQR, Normalize: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.EnergyPerSite(obs, peps.ExpectationOptions{M: 4, Strategy: implicitStrategy(int64(i)), UseCache: true})
	}
}

// BenchmarkExpectationCachedJ1J2 is the measurement half of the wall-clock
// benchmark's ite_j1j2 operation in the tree: the cached J1-J2 energy of
// a 4x4, r = 2 state prepared by 20 ITE steps, contracted at m = 4. The
// tensors are a few hundred elements, so what it reports is allocation
// and scheduling as much as arithmetic (DESIGN.md section 7).
func BenchmarkExpectationCachedJ1J2(b *testing.B) {
	obs := quantum.J1J2Heisenberg(4, 4, quantum.PaperJ1J2Params())
	eng := backend.NewDense()
	state := ite.PlusState(peps.ComputationalZeros(eng, 4, 4))
	gates := obs.TrotterGates(complex(-0.05, 0))
	for i := 0; i < 20; i++ {
		state.ApplyCircuit(gates, peps.UpdateOptions{Rank: 2, Method: peps.UpdateQR, Normalize: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.EnergyPerSite(obs, peps.ExpectationOptions{M: 4, Strategy: implicitStrategy(int64(i)), UseCache: true})
	}
}

// dropSink delivers every span to nobody: what building, linking and
// ending a span costs, with no consumer's cost on top.
type dropSink struct{}

func (dropSink) SpanEnd(obs.Event) {}
func (dropSink) Flush() error      { return nil }

// benchmarkObsJ1J2 is BenchmarkExpectationCachedJ1J2 on an instrumented
// engine, with collection off or on with the given sinks. `make
// bench-smoke` prints the Off/Spans pair, so the on-cost of tracing is in
// every CI log: the ratio of the two is what DESIGN.md section 6 budgets.
func benchmarkObsJ1J2(b *testing.B, on bool, sinks ...obs.Sink) {
	h := quantum.J1J2Heisenberg(4, 4, quantum.PaperJ1J2Params())
	eng := backend.Instrument(backend.NewDense())
	state := ite.PlusState(peps.ComputationalZeros(eng, 4, 4))
	gates := h.TrotterGates(complex(-0.05, 0))
	for i := 0; i < 20; i++ {
		state.ApplyCircuit(gates, peps.UpdateOptions{Rank: 2, Method: peps.UpdateQR, Normalize: true})
	}
	if on {
		obs.Enable(sinks...)
		defer obs.Disable()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.EnergyPerSite(h, peps.ExpectationOptions{M: 4, Strategy: implicitStrategy(int64(i)), UseCache: true})
	}
}

func BenchmarkObsOffJ1J2(b *testing.B)   { benchmarkObsJ1J2(b, false) }
func BenchmarkObsSpansJ1J2(b *testing.B) { benchmarkObsJ1J2(b, true, dropSink{}) }

// --- lattice task scheduler: worker-count scaling benchmarks ---
//
// These two benchmarks are the measured payoff of the lattice-level task
// scheduler (concurrent environment sweeps, parallel Hamiltonian terms,
// checkerboard gate waves). Compare worker counts with e.g.
// KOALA_WORKERS=1 vs KOALA_WORKERS=4; results are bit-identical across
// pool sizes, only the timing changes.

func BenchmarkCachedExpectation(b *testing.B) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(10))
	state := peps.Random(eng, rng, 5, 5, 2, 3)
	h := quantum.TransverseFieldIsing(5, 5, -1, -3.5)
	opts := peps.ExpectationOptions{M: 6, Strategy: explicitStrategy(), UseCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.Expectation(h, opts)
	}
}

func BenchmarkCheckerboardITEStep(b *testing.B) {
	h := quantum.TransverseFieldIsing(6, 6, -1, -3.5)
	eng := backend.NewDense()
	state := ite.PlusState(peps.ComputationalZeros(eng, 6, 6))
	gates := h.TrotterGates(complex(-0.05, 0))
	opts := peps.UpdateOptions{Rank: 3, Method: peps.UpdateQR, Normalize: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.ApplyCircuit(gates, opts)
	}
}

// --- Figure 14: one VQE objective evaluation ---

func BenchmarkFig14_VQEObjectivePEPS(b *testing.B) {
	obs := quantum.TransverseFieldIsing(3, 3, -1, -3.5)
	a := vqe.Ansatz{Rows: 3, Cols: 3, Layers: 2}
	theta := make([]float64, a.NumParams())
	rng := rand.New(rand.NewSource(9))
	for i := range theta {
		theta[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vqe.EnergyPEPS(a, obs, theta, vqe.Options{Rank: 2, Seed: int64(i), UseCache: true})
	}
}

func BenchmarkFig14_VQEObjectiveStateVector(b *testing.B) {
	obs := quantum.TransverseFieldIsing(3, 3, -1, -3.5)
	a := vqe.Ansatz{Rows: 3, Cols: 3, Layers: 2}
	theta := make([]float64, a.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vqe.EnergyStateVector(a, obs, theta)
	}
}

// --- substrate benchmarks backing the experiments ---

func BenchmarkSubstrate_StateVectorITEStep(b *testing.B) {
	obs := quantum.TransverseFieldIsing(4, 4, -1, -3.5)
	gates := obs.TrotterGates(complex(-0.05, 0))
	sv := statevector.Zeros(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gates {
			sv.ApplyGate(g)
		}
		sv.Normalize()
	}
}

// TestExperimentSmoke runs every experiment at tiny sizes against a
// discard writer, ensuring the full harness stays executable.
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is not short")
	}
	w := io.Discard
	bench.ExperimentTable2(w, bench.Table2Config{N: 3, Bonds: []int{2}, Ms: []int{2, 4}, FixB: 2, Seed: 1})
	bench.ExperimentFig7(w, bench.Fig7Config{N: 3, Bonds: []int{2}, Ranks: 16, Seed: 1}, true)
	bench.ExperimentFig8(w, bench.Fig8Config{N: 3, Bonds: []int{2, 4}, ExactMax: 2, Ranks: 16, Seed: 1}, true)
	bench.ExperimentFig9(w, bench.Fig9Config{Sides: []int{2, 3}, Bond: 2, M: 4, Seed: 1})
	bench.ExperimentFig10(w, bench.Fig10Config{Sides: []int{3}, Layers: 4, Ms: []int{1, 16}, Seed: 1})
	bench.ExperimentFig11(w, bench.Fig11Config{N: 3, SmallBond: 2, LargeBond: 3, RankCounts: []int{4, 64}, M: 4, Seed: 1})
	bench.ExperimentFig12(w, bench.Fig12Config{N: 3, RankCounts: []int{64, 128}, BaseBond: 2, BaseM: 3, Seed: 1})
	bench.ExperimentFig13a(w, bench.Fig13Config{Rows: 2, Cols: 2, Tau: 0.05, Steps: 4, Bonds: []int{1}, MeasureEvery: 2, Seed: 1})
	bench.ExperimentFig13b(w, bench.Fig13Config{Rows: 2, Cols: 2, Tau: 0.05, Steps: 4, Bonds: []int{1}, MeasureEvery: 2, Seed: 1})
	bench.ExperimentFig14(w, bench.Fig14Config{Rows: 2, Cols: 2, Layers: 1, Bonds: []int{1}, MaxIter: 3, Seed: 1})
}
