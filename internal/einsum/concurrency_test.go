package einsum

import (
	"math/rand"
	"sync"
	"testing"

	"gokoala/internal/tensor"
)

// TestConcurrentSamePlanReplays stresses the satellite guarantee for the
// lattice scheduler: many goroutines replaying the *same* cached plan
// (identical spec and shapes, distinct operand data) must each get a
// frame of their own from the per-plan free list and produce the same
// result as a sequential evaluation.
func TestConcurrentSamePlanReplays(t *testing.T) {
	const spec = "abc,cd,dbe->ae"
	rng := rand.New(rand.NewSource(17))
	type testCase struct {
		ops  []*tensor.Dense
		want *tensor.Dense
	}
	cases := make([]testCase, 32)
	for i := range cases {
		ops := []*tensor.Dense{
			tensor.Rand(rng, 4, 3, 5),
			tensor.Rand(rng, 5, 6),
			tensor.Rand(rng, 6, 3, 2),
		}
		cases[i] = testCase{ops: ops, want: MustContract(spec, ops...)}
	}

	// The plan is now cached; hammer it from many goroutines at once,
	// several rounds per goroutine so frames get recycled under load.
	var wg sync.WaitGroup
	errs := make(chan string, len(cases)*4)
	for round := 0; round < 4; round++ {
		for i := range cases {
			wg.Add(1)
			go func(tc testCase) {
				defer wg.Done()
				got := MustContract(spec, tc.ops...)
				gd, wd := got.Data(), tc.want.Data()
				for k := range gd {
					if gd[k] != wd[k] {
						errs <- "concurrent replay differs from sequential result"
						return
					}
				}
			}(cases[i])
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentPlanCompilation hammers cachedPlan on a cold key from
// many goroutines: every caller must get a usable plan for its shapes
// (first-writer-wins races in the LRU are fine, torn plans are not).
func TestConcurrentPlanCompilation(t *testing.T) {
	ResetPlanCache()
	rng := rand.New(rand.NewSource(23))
	ops := []*tensor.Dense{tensor.Rand(rng, 7, 4), tensor.Rand(rng, 4, 9)}
	want := MustContract("xy,yz->xz", ops...) // reference via warm path
	ResetPlanCache()                          // make the key cold again for the stampede

	var wg sync.WaitGroup
	results := make([]*tensor.Dense, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = MustContract("xy,yz->xz", ops...)
		}(i)
	}
	wg.Wait()
	wd := want.Data()
	for i, got := range results {
		gd := got.Data()
		for k := range gd {
			if gd[k] != wd[k] {
				t.Fatalf("goroutine %d got a wrong contraction under cold-cache stampede", i)
			}
		}
	}
}
