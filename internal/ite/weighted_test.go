package ite

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/checkpoint"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
)

// TestEvolveWeightedUpdate drives the lambda-weighted simple update
// through the ITE entry point: at equal rank it must land no further
// from the exact ground energy than the plain update, and Result.Final
// must be the state the last energy was measured on — the bond weights
// absorbed, not the bare site tensors the evolution works on.
func TestEvolveWeightedUpdate(t *testing.T) {
	rows, cols := 2, 2
	obs := quantum.TransverseFieldIsing(rows, cols, -1, -3.5)
	exactE, _ := statevector.GroundState(obs, rows*cols, rand.New(rand.NewSource(6)))
	exact := exactE / float64(rows*cols)

	eng := backend.NewDense()
	opts := Options{
		Tau: 0.05, Steps: 60, EvolutionRank: 2, ContractionRank: 4,
		Strategy: einsumsvd.Explicit{}, MeasureEvery: 60,
	}
	plain := Evolve(PlusState(peps.ComputationalZeros(eng, rows, cols)), obs, opts)

	opts.WeightedUpdate = true
	bare := PlusState(peps.ComputationalZeros(eng, rows, cols))
	weighted := Evolve(bare, obs, opts)

	last := func(r Result) float64 { return r.Energies[len(r.Energies)-1] }
	gapPlain, gapWeighted := math.Abs(last(plain)-exact), math.Abs(last(weighted)-exact)
	t.Logf("exact %.6f plain %.6f (gap %.2e) weighted %.6f (gap %.2e)",
		exact, last(plain), gapPlain, last(weighted), gapWeighted)
	if gapWeighted > gapPlain {
		t.Fatalf("weighted gap %g exceeds plain gap %g at equal rank", gapWeighted, gapPlain)
	}

	measure := func(p *peps.PEPS) float64 {
		return p.EnergyPerSite(obs, peps.ExpectationOptions{M: opts.ContractionRank, Strategy: einsumsvd.Explicit{}})
	}
	if weighted.Final == bare {
		t.Fatal("Result.Final is the bare evolved state, want the lambda-absorbed copy")
	}
	if got := measure(weighted.Final); got != last(weighted) {
		t.Fatalf("Result.Final measures %.17g, the trace ends at %.17g", got, last(weighted))
	}
	if got := measure(bare); math.Abs(got-last(weighted)) < 1e-9 {
		t.Fatalf("bare site tensors measure %.17g, indistinguishable from the absorbed state: the test cannot tell them apart", got)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

// TestWeightedUpdateRejectsUnsupportedCombinations pins the two loud
// failures: bond weights are not serialized, and there is no weighted
// block-sparse update.
func TestWeightedUpdateRejectsUnsupportedCombinations(t *testing.T) {
	obs := quantum.TransverseFieldIsingDual(2, 2, -1, -3.5)
	eng := backend.NewDense()
	opts := Options{Tau: 0.05, Steps: 1, EvolutionRank: 2, ContractionRank: 4,
		Strategy: einsumsvd.Explicit{}, WeightedUpdate: true}

	writing, resuming := opts, opts
	writing.CheckpointPath = filepath.Join(t.TempDir(), "w.ckpt")
	resuming.From = &checkpoint.ITECheckpoint{State: peps.ComputationalZeros(eng, 2, 2)}
	for name, o := range map[string]Options{"writing": writing, "resuming": resuming} {
		msg := panicMessage(func() { Evolve(peps.ComputationalZeros(eng, 2, 2), obs, o) })
		if !strings.Contains(msg, "checkpointing does not support WeightedUpdate") {
			t.Fatalf("weighted + checkpoint (%s): panic %q", name, msg)
		}
	}

	se, _ := backend.SymOf(eng)
	msg := panicMessage(func() { EvolveSym(peps.SymComputationalBasis(se, 2, 2, 2, nil), obs, opts) })
	if !strings.Contains(msg, "weighted simple update does not support the block-sparse backend") {
		t.Fatalf("weighted + block-sparse: panic %q", msg)
	}
}
