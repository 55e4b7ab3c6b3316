package obsfile

import (
	"bytes"
	"math"
	"testing"
	"time"

	"gokoala/internal/obs"
)

// buildLog drives a small traced workload through a real JSONL sink and
// returns the log bytes plus the live summary obs computed, so the
// reader can be checked against the source of truth.
func buildLog(t *testing.T) ([]byte, []obs.PhaseStat) {
	t.Helper()
	obs.Disable()
	var buf bytes.Buffer
	obs.Enable(obs.NewJSONLSink(&buf), obs.PhaseSummary())
	cnt := obs.NewCounter("dist.test.ops")
	cnt.Add(42)

	for step := 0; step < 3; step++ {
		root := obs.Start("step")
		task := root.StartChild("task")
		done := make(chan struct{})
		go func() {
			defer close(done)
			leaf := task.StartChild("leaf").SetInt("flops", 1000)
			time.Sleep(200 * time.Microsecond)
			leaf.End()
			task.End()
		}()
		<-done
		root.End()
	}
	obs.EmitRank(obs.RankRecord{Grid: "g", Rank: 0, CompSeconds: 0.75, WaitSeconds: 0.25})
	obs.EmitRank(obs.RankRecord{Grid: "g", Rank: 1, CompSeconds: 0.25, WaitSeconds: 0.75})

	want := obs.Summary()
	if err := obs.Disable(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// The reader must rebuild the same per-phase summary obs computed live:
// same counts, same totals and selfs (up to microsecond serialization).
func TestPhasesMatchLiveSummary(t *testing.T) {
	log, want := buildLog(t)
	tr, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Phase{}
	for _, p := range tr.Phases() {
		got[p.Name] = p
	}
	if len(got) != len(want) {
		t.Fatalf("phase count %d != live %d", len(got), len(want))
	}
	const tolUS = 1.0
	for _, w := range want {
		g, ok := got[w.Name]
		if !ok {
			t.Fatalf("phase %q missing from reader output", w.Name)
		}
		if g.Count != w.Count {
			t.Fatalf("%s count %d != %d", w.Name, g.Count, w.Count)
		}
		wantTotal := float64(w.Total.Nanoseconds()) / 1e3
		wantSelf := float64(w.Self.Nanoseconds()) / 1e3
		if math.Abs(g.TotalUS-wantTotal) > tolUS {
			t.Fatalf("%s total %.3fus != live %.3fus", w.Name, g.TotalUS, wantTotal)
		}
		if math.Abs(g.SelfUS-wantSelf) > tolUS {
			t.Fatalf("%s self %.3fus != live %.3fus", w.Name, g.SelfUS, wantSelf)
		}
	}
	if v, ok := got["leaf"]; !ok || v.Attrs["flops"] != 3000 {
		t.Fatalf("leaf flops sum = %v, want 3000", got["leaf"].Attrs)
	}
	if tr.Metrics["dist.test.ops"] != 42 {
		t.Fatalf("metrics record lost: %v", tr.Metrics)
	}
}

// The tree must reflect the explicit handles: leaf under task under
// step, three of each, and roots only at depth zero.
func TestTreeStructure(t *testing.T) {
	log, _ := buildLog(t)
	tr, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Roots) != 3 {
		t.Fatalf("want 3 roots, got %d", len(tr.Roots))
	}
	for _, root := range tr.Roots {
		if root.Name != "step" || root.Depth != 0 {
			t.Fatalf("unexpected root %q depth %d", root.Name, root.Depth)
		}
		if len(root.Children) != 1 || root.Children[0].Name != "task" {
			t.Fatalf("step children = %+v", root.Children)
		}
		task := root.Children[0]
		if len(task.Children) != 1 || task.Children[0].Name != "leaf" {
			t.Fatalf("task children = %+v", task.Children)
		}
	}
}

// Critical path: bounded below by the longest single chain and above by
// the summed root durations (and the traced wall for serial roots), and
// it must walk through the sleeping leaves.
func TestCriticalPathBounds(t *testing.T) {
	log, _ := buildLog(t)
	tr, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	steps, total := tr.CriticalPath()
	if len(steps) != 9 { // 3 roots x (step, task, leaf)
		t.Fatalf("want 9 path steps, got %d", len(steps))
	}
	var maxChain, rootDur float64
	for _, root := range tr.Roots {
		rootDur += root.DurUS
		chain := root.SelfUS() + root.Children[0].SelfUS() + root.Children[0].Children[0].SelfUS()
		if chain > maxChain {
			maxChain = chain
		}
	}
	if total < maxChain {
		t.Fatalf("critical path %.1fus below longest chain %.1fus", total, maxChain)
	}
	if total > rootDur+1 {
		t.Fatalf("critical path %.1fus exceeds summed root durations %.1fus", total, rootDur)
	}
	if wall := tr.WallUS(); total > wall+1 {
		t.Fatalf("critical path %.1fus exceeds traced wall %.1fus", total, wall)
	}
	for _, st := range steps {
		if st.SlackUS < -1 {
			t.Fatalf("negative slack %.1fus on %s", st.SlackUS, st.Span.Name)
		}
	}
}

func TestRankTable(t *testing.T) {
	log, _ := buildLog(t)
	tr, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	rows := tr.RankTable()
	if len(rows) != 2 {
		t.Fatalf("want 2 rank rows, got %d", len(rows))
	}
	if rows[0].Rank != 0 || rows[0].UtilPct != 75 || rows[0].TotalS != 1 {
		t.Fatalf("rank 0 row wrong: %+v", rows[0])
	}
	if rows[1].Rank != 1 || rows[1].UtilPct != 25 {
		t.Fatalf("rank 1 row wrong: %+v", rows[1])
	}
}

func TestDiffDeterministicFieldsOnly(t *testing.T) {
	log, _ := buildLog(t)
	a, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if diffs, checked := Diff(a, b); len(diffs) != 0 || checked == 0 {
		t.Fatalf("identical traces differ: %v (checked %d)", diffs, checked)
	}
	// A deterministic counter change must surface...
	b.Metrics["dist.test.ops"] = 43
	diffs, _ := Diff(a, b)
	if len(diffs) != 1 || diffs[0].Field != "dist.test.ops" {
		t.Fatalf("want the dist.test.ops diff, got %v", diffs)
	}
	// ...while wall-clock-like metrics are ignored.
	b.Metrics["dist.test.ops"] = 42
	b.Metrics["mem.peak_bytes"] = 1 << 30
	b.Metrics["pool.group.tasks"] = 999
	if diffs, _ := Diff(a, b); len(diffs) != 0 {
		t.Fatalf("nondeterministic metrics leaked into diff: %v", diffs)
	}
	// Rank timeline totals are part of the deterministic surface.
	b.Ranks[0].CompSeconds += 0.5
	if diffs, _ := Diff(a, b); len(diffs) != 1 || diffs[0].Field != "rank[g/0].comp_s" {
		t.Fatalf("want the rank comp_s diff, got %v", diffs)
	}
}

func TestDeterministicMetricPredicate(t *testing.T) {
	yes := []string{
		"dist.modeled.comm_seconds", "dist.comm.bytes", "dist.redistributions",
		"einsum.gemm.flops", "einsum.move.bytes", "einsum.contractions",
		"health.nan_detected", "pool.task.count",
	}
	no := []string{
		"pool.group.tasks", "pool.group.inline", "pool.tasks", "pool.inline",
		"pool.queue_wait_seconds", "einsum.plan.hits", "einsum.plan.misses",
		"mem.peak_bytes", "mem.live_bytes", "svd.trunc_error",
		// Real-transport wall clock lives under the dist. prefix but must
		// never be diffed or gated.
		"dist.measured.comm_seconds", "dist.measured.allreduce_seconds",
		"dist.measured.alltoall_ops", "dist.measured.comm_ops",
	}
	for _, n := range yes {
		if !DeterministicMetric(n) {
			t.Fatalf("%s should be deterministic", n)
		}
	}
	for _, n := range no {
		if DeterministicMetric(n) {
			t.Fatalf("%s must not be gated/diffed", n)
		}
	}
}
