package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// The timing Engine wrapper and the counting Strategy wrapper forward
// unchanged: on every workload, the same operation yields the same bits
// with and without them.
func TestWrappersAreInert(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			inst := w.build(7)
			rec := newRecorder()
			rec.mode.Store(modeTotals)
			var calls atomic.Int64
			var wrap wrapFn
			if inst.wrapTraced {
				wrap = func(st einsumsvd.Strategy) einsumsvd.Strategy {
					return countingStrategy{inner: st, calls: &calls}
				}
			}
			wrapped := inst.states.rebind(wrapEngine(inst.eng, rec))
			for op := 0; op < 2; op++ {
				bare := runOp(inst, inst.states, op, nil)
				seen := runOp(inst, wrapped, op, wrap)
				if bare.panicked || seen.panicked {
					t.Fatalf("operation %d panicked", op)
				}
				if math.Float64bits(bare.value) != math.Float64bits(seen.value) || bare.maxBond != seen.maxBond {
					t.Errorf("operation %d: %v (bond %d) bare, %v (bond %d) behind the wrappers",
						op, bare.value, bare.maxBond, seen.value, seen.maxBond)
				}
			}
			if rec.einsum.calls.Load() == 0 {
				t.Error("the wrapped engine recorded no einsum call")
			}
			if inst.wrapTraced && calls.Load() == 0 {
				t.Error("the counting strategy saw no Factor call")
			}
		})
	}
}

func TestEinsumMixedForwardedOnlyWhenInnerHasIt(t *testing.T) {
	rec := newRecorder()
	dense := backend.NewDense()
	wrapped, ok := wrapEngine(dense, rec).(backend.MixedContractor)
	if !ok {
		t.Fatal("wrapper around Dense lost EinsumMixed")
	}
	rng := rand.New(rand.NewSource(1))
	a, b := tensor.Rand(rng, 8, 16), tensor.Rand(rng, 16, 8)
	want := dense.EinsumMixed("ij,jk->ik", a, b)
	got := wrapped.EinsumMixed("ij,jk->ik", a, b)
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("EinsumMixed through the wrapper differs at element %d", i)
		}
	}

	gram := backend.NewDist(dist.NewGrid(dist.Stampede2(4)), true)
	if _, ok := backend.Engine(gram).(backend.MixedContractor); ok {
		t.Fatal("test premise broken: Dist now has EinsumMixed")
	}
	if _, ok := wrapEngine(gram, rec).(backend.MixedContractor); ok {
		t.Error("wrapper around Dist gained an EinsumMixed the inner engine lacks")
	}
}

// Kept spans form a forest of depth one: ids are unique, every leaf names
// an existing root of the same operation and lies inside it, at one pool
// worker and at four. Run with -race: leaves arrive from pool goroutines.
func TestSpanParentsAndOpsConsistent(t *testing.T) {
	defer pool.SetWorkers(pool.Size())
	w := findWorkload("ite_j1j2")
	inst := w.build(3)
	for _, workers := range []int{1, 4} {
		pool.SetWorkers(workers)
		rec := newRecorder()
		st := inst.states.rebind(wrapEngine(inst.eng, rec))
		rec.mode.Store(modeKeep)
		const ops = 2
		for op := 0; op < ops; op++ {
			rec.rootSpan(spanOp, op, func() { runOp(inst, st, op, nil) })
		}
		rec.mode.Store(modeOff)

		roots := map[int64]span{}
		seen := map[int64]bool{}
		for _, s := range rec.spans {
			if seen[s.ID] {
				t.Fatalf("workers=%d: span id %d used twice", workers, s.ID)
			}
			seen[s.ID] = true
			if s.Parent == 0 {
				roots[s.ID] = s
			}
		}
		if len(roots) != ops {
			t.Fatalf("workers=%d: %d root spans, want %d", workers, len(roots), ops)
		}
		leaves := 0
		for _, s := range rec.spans {
			if s.Parent == 0 {
				continue
			}
			leaves++
			root, ok := roots[s.Parent]
			switch {
			case !ok:
				t.Fatalf("workers=%d: leaf %d has unknown parent %d", workers, s.ID, s.Parent)
			case root.Op != s.Op:
				t.Fatalf("workers=%d: leaf %d of operation %d under root of operation %d", workers, s.ID, s.Op, root.Op)
			case s.Start < root.Start || s.End > root.End || s.End < s.Start:
				t.Fatalf("workers=%d: leaf %d [%d,%d] outside its root [%d,%d]", workers, s.ID, s.Start, s.End, root.Start, root.End)
			}
		}
		if leaves == 0 {
			t.Fatalf("workers=%d: no Engine span recorded", workers)
		}
	}
}
