package linalg

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gokoala/internal/tensor"
)

// TestQRAllocs is the allocation regression test of the factorization
// workspaces: a warmed 32x8 QR allocates its two factors (buffer, shape
// and header each) and no scratch, an orthonormalization only Q, and
// neither count moves when the collector has run twice — the workspace
// free list is not a sync.Pool.
func TestQRAllocs(t *testing.T) {
	a := tensor.Rand(rand.New(rand.NewSource(5)), 32, 8)
	for _, tc := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"QR", func() { QR(a) }, 6},
		{"OrthQR", func() { OrthQR(a) }, 3},
	} {
		tc.run() // grows the workspace
		warm := testing.AllocsPerRun(100, tc.run)
		if warm > tc.max {
			t.Errorf("warmed %s allocates %v times per run, want at most %v (the factors)", tc.name, warm, tc.max)
		}
		runtime.GC()
		runtime.GC()
		if after := testing.AllocsPerRun(100, tc.run); after != warm {
			t.Errorf("%s allocates %v times per run after two GC cycles, %v before", tc.name, after, warm)
		}
	}
}

// TestWorkspaceReuseKeepsResults runs factorizations of different shapes
// back to back from 8 goroutines, so that every one of them works on a
// dirty, differently-sized workspace another just returned, and compares
// each result to the last bit with the one a fresh workspace gives.
func TestWorkspaceReuseKeepsResults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][2]int{{32, 8}, {8, 8}, {5, 12}, {24, 24}, {40, 17}, {16, 3}}
	type ref struct {
		a, q, r, u, v *tensor.Dense
		s             []float64
	}
	refs := make([]ref, len(shapes))
	for i, sh := range shapes {
		a := tensor.Rand(rng, sh[0], sh[1])
		for { // drain the free list: the reference runs on fresh workspaces
			if _, ok := workspaces.Get(); !ok {
				break
			}
		}
		q, r := QR(a)
		u, s, v := SVD(a)
		refs[i] = ref{a, q, r, u, v, s}
	}
	same := func(x, y *tensor.Dense) bool {
		xd, yd := x.Data(), y.Data()
		for i := range xd {
			if xd[i] != yd[i] {
				return false
			}
		}
		return len(xd) == len(yd)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				w := refs[(i+g)%len(refs)]
				q, r := QR(w.a)
				u, s, v := SVD(w.a)
				ok := same(q, w.q) && same(r, w.r) && same(u, w.u) && same(v, w.v)
				for k := range s {
					ok = ok && s[k] == w.s[k]
				}
				if !ok {
					t.Errorf("goroutine %d: %v factorization on a reused workspace differs from a fresh one", g, w.a.Shape())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProbeBlockMemo is the regression test of the RandSVD health probe:
// the residual, hence every fallback decision, must be the same to the
// last bit whether the probe block is drawn (cold memo) or reused (warm),
// from 8 goroutines at once.
func TestProbeBlockMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, n, k = 24, 18, 5
	op := MatrixOperator{M: tensor.Rand(rng, m, n)}
	p := OrthQR(tensor.Rand(rng, m, k))
	clearProbes := func() {
		probeMu.Lock()
		clear(probeBlocks)
		probeMu.Unlock()
	}
	clearProbes()
	cold := subspaceResidual(op, p, m, n, k)
	if cold <= 0 || cold >= 1 {
		t.Fatalf("residual %g of a rank-%d basis against a full-rank operator", cold, k)
	}
	if warm := subspaceResidual(op, p, m, n, k); warm != cold {
		t.Fatalf("warm-memo residual %v differs from cold %v", warm, cold)
	}
	clearProbes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := subspaceResidual(op, p, m, n, k); got != cold {
					t.Errorf("concurrent residual %v differs from %v", got, cold)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The memo is bounded: a stream of distinct shapes cannot grow it
	// past maxProbeBlocks.
	for i := 0; i < 2*maxProbeBlocks; i++ {
		probeBlock(m, n+i, k)
	}
	probeMu.Lock()
	size := len(probeBlocks)
	probeMu.Unlock()
	if size > maxProbeBlocks {
		t.Fatalf("probe memo holds %d blocks, bound is %d", size, maxProbeBlocks)
	}
}
