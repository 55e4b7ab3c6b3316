package peps

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/pool"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// workerCounts are the pool sizes every determinism test sweeps; results
// must be bit-identical across all of them.
var workerCounts = []int{1, 2, 4, 8}

// forEachWorkerCount runs body once per pool size and restores the
// default pool afterwards.
func forEachWorkerCount(t *testing.T, body func(t *testing.T, workers int)) {
	t.Helper()
	defer pool.SetWorkers(0)
	for _, w := range workerCounts {
		pool.SetWorkers(w)
		body(t, w)
	}
}

func equalData(a, b *tensor.Dense) bool {
	da, db := a.Data(), b.Data()
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

// testState builds the same random PEPS for every call (fresh rng), so
// worker-count runs start from identical inputs.
func testState(rows, cols, bond int) *PEPS {
	return Random(eng, rand.New(rand.NewSource(41)), rows, cols, 2, bond)
}

func TestExpectationBitIdenticalAcrossWorkers(t *testing.T) {
	h := quantum.TransverseFieldIsing(3, 3, 1.0, 0.7)
	for _, tc := range []struct {
		name     string
		strategy func() einsumsvd.Strategy
		useCache bool
	}{
		{"cached-explicit", explicit, true},
		{"direct-explicit", explicit, false},
		{"cached-implicit", func() einsumsvd.Strategy { return implicit(5) }, true},
		{"direct-implicit", func() einsumsvd.Strategy { return implicit(5) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want complex128
			forEachWorkerCount(t, func(t *testing.T, w int) {
				p := testState(3, 3, 2)
				got := p.Expectation(h, ExpectationOptions{M: 8, Strategy: tc.strategy(), UseCache: tc.useCache})
				if w == workerCounts[0] {
					want = got
					return
				}
				if got != want {
					t.Fatalf("workers=%d: expectation %v differs from single-worker %v", w, got, want)
				}
			})
		})
	}
}

// TestBMPSNormFlopsEqualAcrossWorkers pins the flop accounting of a
// boundary-MPS norm: the top and bottom sweeps run their SVDs and GEMMs
// concurrently at more than one worker, and every factorization charges
// its analytic count with a single add, so the total cannot depend on
// the pool size. (The charge used to be "replace what the counter gained
// while I ran", which swallowed the other sweep's GEMMs.)
func TestBMPSNormFlopsEqualAcrossWorkers(t *testing.T) {
	var want int64
	forEachWorkerCount(t, func(t *testing.T, w int) {
		p := testState(4, 4, 3)
		tensor.ResetFlopCount()
		p.Norm(BMPS{M: 9, Strategy: explicit()})
		got := tensor.FlopCount()
		if w == workerCounts[0] {
			want = got
			return
		}
		if got != want {
			t.Fatalf("workers=%d: BMPS norm counted %d flops, single-worker %d", w, got, want)
		}
	})
}

func TestTopEnvironmentsBitIdenticalAcrossWorkers(t *testing.T) {
	var want []boundary
	forEachWorkerCount(t, func(t *testing.T, w int) {
		p := testState(4, 3, 2)
		tops := p.TopEnvironments(6, explicit())
		if w == workerCounts[0] {
			want = tops
			return
		}
		for k := range tops {
			for c := range tops[k] {
				if !equalData(tops[k][c], want[k][c]) {
					t.Fatalf("workers=%d: tops[%d][%d] differs bit-wise", w, k, c)
				}
			}
		}
	})
}

func TestApplyCircuitBitIdenticalAcrossWorkers(t *testing.T) {
	h := quantum.TransverseFieldIsing(3, 3, 1.0, 0.9)
	gates := h.TrotterGates(complex(-0.05, 0))
	run := func(st einsumsvd.Strategy) *PEPS {
		p := testState(3, 3, 2)
		p.ApplyCircuit(gates, UpdateOptions{Rank: 3, Method: UpdateQR, Strategy: st, Normalize: true})
		return p
	}
	for _, tc := range []struct {
		name     string
		strategy func() einsumsvd.Strategy
	}{
		{"explicit", func() einsumsvd.Strategy { return nil }},
		{"implicit", func() einsumsvd.Strategy { return implicit(9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want *PEPS
			forEachWorkerCount(t, func(t *testing.T, w int) {
				p := run(tc.strategy())
				if w == workerCounts[0] {
					want = p
					return
				}
				if p.LogScale != want.LogScale {
					t.Fatalf("workers=%d: LogScale %v differs from single-worker %v", w, p.LogScale, want.LogScale)
				}
				for r := 0; r < p.Rows; r++ {
					for c := 0; c < p.Cols; c++ {
						if !equalData(p.Site(r, c), want.Site(r, c)) {
							t.Fatalf("workers=%d: site (%d,%d) differs bit-wise", w, r, c)
						}
					}
				}
			})
		})
	}
}

func TestGateWavesCheckerboard(t *testing.T) {
	p := ComputationalZeros(eng, 3, 3)
	h := quantum.TransverseFieldIsing(3, 3, 1.0, 0.5)
	gates := h.TrotterGates(complex(-0.1, 0))
	waves := p.gateWaves(gates)
	// Every gate appears exactly once, waves preserve program order
	// between conflicting gates, and gates within a wave are disjoint.
	seen := make([]bool, len(gates))
	for _, wave := range waves {
		used := map[int]bool{}
		for _, i := range wave {
			if seen[i] {
				t.Fatalf("gate %d scheduled twice", i)
			}
			seen[i] = true
			for _, s := range gates[i].Sites {
				if used[s] {
					t.Fatalf("wave contains two gates touching site %d", s)
				}
				used[s] = true
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("gate %d never scheduled", i)
		}
	}
	// A checkerboard sweep must compress well below one-wave-per-gate.
	if len(waves) >= len(gates) {
		t.Fatalf("schedule degenerated to %d waves for %d gates", len(waves), len(gates))
	}
}

func TestGateWavesRoutedGateIsBarrier(t *testing.T) {
	p := ComputationalZeros(eng, 3, 3)
	cz := quantum.CZ()
	gates := []quantum.TrotterGate{
		{Gate: cz, Sites: []int{0, 1}},
		{Gate: cz, Sites: []int{0, 8}}, // non-adjacent: routed
		{Gate: cz, Sites: []int{3, 4}},
	}
	waves := p.gateWaves(gates)
	for _, wave := range waves {
		for _, i := range wave {
			if i == 1 && len(wave) != 1 {
				t.Fatalf("routed gate shares wave %v", wave)
			}
		}
	}
	// The routed gate must be ordered strictly between its neighbours.
	pos := make([]int, len(gates))
	for w, wave := range waves {
		for _, i := range wave {
			pos[i] = w
		}
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Fatalf("routed barrier not ordered: wave positions %v", pos)
	}
}

// TestVerticalTermAcrossCachedRowBoundary is the termRowSpan regression:
// a vertical two-site term spans two rows, so its cached strip must
// rebuild both rows between the cached environments tops[rlo] and
// bottoms[rhi+1]. Cached and direct evaluation must agree.
func TestVerticalTermAcrossCachedRowBoundary(t *testing.T) {
	p := testState(4, 3, 2)
	for _, h := range []*quantum.Observable{
		// Vertical term rows 1-2: exactly the cut between the cached top
		// and bottom environment halves of a 4-row lattice.
		quantum.ObservableZZ(p.SiteIndex(1, 1), p.SiteIndex(2, 1)),
		// Routed multi-row term (diagonal neighbours, SWAP chain stays
		// within rows 1..2).
		quantum.NewObservable().AddTerm(1, quantum.CZ(), p.SiteIndex(1, 0), p.SiteIndex(2, 1)),
	} {
		opts := ExpectationOptions{M: 64, Strategy: explicit()}
		direct := p.Expectation(h, opts)
		opts.UseCache = true
		cached := p.Expectation(h, opts)
		if d := cmplx.Abs(cached - direct); d > 1e-8 {
			t.Fatalf("cached %v vs direct %v differ by %g", cached, direct, d)
		}
	}
}
