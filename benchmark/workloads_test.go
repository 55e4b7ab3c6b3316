package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"gokoala/internal/peps"
	"gokoala/internal/pool"
)

func sameInputs(a, b inputs) bool {
	for k := range a {
		if !sameSites(a[k], b[k]) {
			return false
		}
	}
	return len(a) == len(b)
}

func sameSites(a, b *peps.PEPS) bool {
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			x, y := a.Site(r, c).Data(), b.Site(r, c).Data()
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
		}
	}
	return true
}

// The same seed gives the same input tensors, bit for bit; another seed
// gives other tensors.
func TestInputsFollowSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.build(1).states, w.build(1).states, w.build(2).states
		if !sameInputs(a, b) {
			t.Errorf("%s: two builds with seed 1 differ", w.name)
		}
		if sameSites(a[0], c[0]) {
			t.Errorf("%s: seeds 1 and 2 give the same input", w.name)
		}
		if sameSites(a[0], a[1]) {
			t.Errorf("%s: two gauge copies of one build are the same", w.name)
		}
	}
}

// tinyRun holds two end-to-end and two per-layer runs of one workload at
// two operations a pass, on one set-up instance.
type tinyRun struct {
	endToEnd [2]*report
	layers   [2]*report
}

var tiny = struct {
	once sync.Once
	runs map[string]*tinyRun
	err  error
}{runs: map[string]*tinyRun{}}

func tinyRuns(t *testing.T) map[string]*tinyRun {
	t.Helper()
	tiny.once.Do(func() {
		defer pool.SetWorkers(pool.Size())
		pool.SetWorkers(2)
		pl := plan{minOps: 2, tracedOps: 2, shortOps: 1, keptOps: 1}
		dir := t.TempDir()
		for i := range workloads {
			w := &workloads[i]
			inst, d := setUp(w, 1)
			run := &tinyRun{}
			for k := 0; k < 2; k++ {
				run.endToEnd[k] = endToEndOn(w, inst, []float64{d.Seconds()}, pl)
				freshen(inst, inst.states, nil)
				run.layers[k], tiny.err = layersOn(w, inst, pl, dir)
				if tiny.err != nil {
					return
				}
				addRoofline(run.layers[k], &roofline{gemm256: 1, gemmSkinny: 1, transpose: 1})
				freshen(inst, inst.states, nil)
			}
			tiny.runs[w.name] = run
		}
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	return tiny.runs
}

func TestEveryWorkloadRunsAndChecks(t *testing.T) {
	for name, run := range tinyRuns(t) {
		for _, rep := range []*report{run.endToEnd[0], run.endToEnd[1], run.layers[0], run.layers[1]} {
			if rep.failed != 0 || !rep.correct {
				t.Errorf("%s: failed=%d correct=%v", name, rep.failed, rep.correct)
			}
		}
		e := run.endToEnd[0]
		for _, b := range endToEnd {
			v := e.get(b.name)
			if b.name == "op_p90_ms" {
				if !math.IsNaN(v) {
					t.Errorf("%s: op_p90_ms = %v from %d operations; it needs %d", name, v, e.ops, minP90Samples)
				}
				continue
			}
			if !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, b.name, v)
			}
		}
		if got := e.get("fail_ratio"); got != 0 {
			t.Errorf("%s: fail_ratio = %v", name, got)
		}
		if got := run.layers[0].get("peps.self_ms_per_op"); !(got >= 0) {
			t.Errorf("%s: peps.self_ms_per_op = %v: Engine busy time exceeds CPU time", name, got)
		}
	}
}

// The same seed gives the same accuracy and the same exact counts twice.
func TestSameSeedRepeatsAccuracyAndCounts(t *testing.T) {
	exact := []string{
		"einsum.calls_per_op", "einsum.cmacs_per_op", "einsum.plan_misses", "einsum.gemm_calls_per_op", "einsum.move_mb_per_op",
		"linalg.truncsvd_calls_per_op", "linalg.qrsplit_calls_per_op", "linalg.orth_calls_per_op", "linalg.gram_fallback_ratio",
		"einsumsvd.factor_calls_per_op", "einsumsvd.randsvd_fallbacks_per_op", "einsumsvd.fallback_ratio",
		"pool.group_tasks_per_op", "dist.comm_mb_per_op", "dist.msgs_per_op", "dist.redistributions_per_op",
	}
	for name, run := range tinyRuns(t) {
		a, b := run.endToEnd[0].get("accuracy_digits"), run.endToEnd[1].get("accuracy_digits")
		if a != b {
			t.Errorf("%s: accuracy_digits %v then %v", name, a, b)
		}
		for _, m := range exact {
			a, b := run.layers[0].get(m), run.layers[1].get(m)
			if a != b || math.IsNaN(a) {
				t.Errorf("%s: %s %v then %v", name, m, a, b)
			}
		}
		// Modeled seconds are exact picosecond counts inside the grid but
		// reach Snapshot as floats, so their difference rounds.
		a, b = run.layers[0].get("dist.modeled_ms_per_op"), run.layers[1].get("dist.modeled_ms_per_op")
		if math.Abs(a-b) > 1e-9*math.Abs(a) {
			t.Errorf("%s: dist.modeled_ms_per_op %v then %v", name, a, b)
		}
	}
}

// The layers each workload is there to isolate.
func TestLayerSeparation(t *testing.T) {
	runs := tinyRuns(t)
	layer := func(w, m string) float64 { return runs[w].layers[0].get(m) }

	// The physical-state property norm_ibmps exists for: the sketch never
	// degrades to the exact SVD.
	if got := layer("norm_ibmps", "einsumsvd.fallback_ratio"); got != 0 {
		t.Errorf("norm_ibmps: einsumsvd.fallback_ratio = %v, want 0", got)
	}
	if got := layer("norm_ibmps", "linalg.truncsvd_calls_per_op"); got != 0 {
		t.Errorf("norm_ibmps: linalg.truncsvd_calls_per_op = %v, want 0", got)
	}
	if got := layer("norm_ibmps", "einsumsvd.factor_calls_per_op"); got == 0 {
		t.Error("norm_ibmps: no Factor call counted, so the fallback ratio has no denominator")
	}
	for _, w := range []string{"norm_bmps", "norm_ibmps"} {
		if got := layer(w, "linalg.qrsplit_calls_per_op"); got != 0 {
			t.Errorf("%s: linalg.qrsplit_calls_per_op = %v, want 0", w, got)
		}
	}
	if got := layer("norm_bmps", "linalg.orth_calls_per_op"); got != 0 {
		t.Errorf("norm_bmps: linalg.orth_calls_per_op = %v, want 0", got)
	}
	for name, run := range runs {
		for _, m := range run.layers[0].metrics {
			if !strings.HasPrefix(m.name, "dist.") {
				continue
			}
			if onGram := name == "evolve_gram"; (m.value != 0) != onGram {
				t.Errorf("%s: %s = %v", name, m.name, m.value)
			}
		}
	}
}

// BENCHMARK.json at the repository root declares what this program
// prints: workloads, end-to-end metrics with their bounds, per-layer
// metrics.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var decl struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, d := range decl.Workloads {
		if w := workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}

	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d bounded", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range decl.EndToEnd {
		b := endToEnd[i]
		better := "lower"
		if b.higher {
			better = "higher"
		}
		if d.Name != b.name || d.Unit != b.unit || d.Better != better || d.Bound != b.share {
			t.Errorf("end-to-end metric %d: declared %+v, program has %+v", i, d, b)
		}
	}

	printed := map[string]string{}
	for _, m := range tinyRuns(t)["evolve_qr"].layers[0].metrics {
		printed[m.name] = m.unit
	}
	for _, d := range decl.PerLayer {
		if unit, ok := printed[d.Name]; !ok || unit != d.Unit {
			t.Errorf("per-layer metric %s (%s) declared but printed as %q", d.Name, d.Unit, unit)
		}
		delete(printed, d.Name)
	}
	for name := range printed {
		t.Errorf("per-layer metric %s printed but not declared", name)
	}
}
