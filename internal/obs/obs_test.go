package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// cleanup returns collection to the disabled default state.
func cleanup() {
	Disable()
	ResetCounters()
}

func TestDisabledFastPath(t *testing.T) {
	cleanup()
	if Enabled() {
		t.Fatal("obs should start disabled")
	}
	sp := Start("anything")
	if sp != nil {
		t.Fatal("Start while disabled must return nil")
	}
	// All nil-receiver methods must be no-ops.
	sp.SetStr("k", "v").SetFloat("f", 1).SetInt("i", 2)
	sp.End()
	c := NewCounter("test.disabled.counter")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("disabled counter advanced to %d", c.Value())
	}
}

func TestSpanNestingAndSummary(t *testing.T) {
	cleanup()
	Enable(PhaseSummary())
	defer cleanup()

	outer := Start("outer")
	inner := outer.StartChild("inner")
	time.Sleep(time.Millisecond)
	inner.SetFloat("modeled_s", 0.5)
	inner.End()
	inner2 := outer.StartChild("inner")
	inner2.SetFloat("modeled_s", 0.25)
	inner2.End()
	outer.End()

	stats := Summary()
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	in, ok := byName["inner"]
	if !ok || in.Count != 2 {
		t.Fatalf("inner summary wrong: %+v", byName)
	}
	if got := in.Attrs["modeled_s"]; got != 0.75 {
		t.Fatalf("modeled_s sum = %v want 0.75", got)
	}
	out := byName["outer"]
	if out.Count != 1 {
		t.Fatalf("outer count = %d", out.Count)
	}
	if out.Self > out.Total {
		t.Fatalf("self %v exceeds total %v", out.Self, out.Total)
	}
	// Outer's self time excludes the sleeping child.
	if out.Self >= out.Total-500*time.Microsecond {
		t.Fatalf("outer self %v should exclude child time (total %v)", out.Self, out.Total)
	}
}

func TestCountersAndGauges(t *testing.T) {
	cleanup()
	c := NewCounter("test.counter")
	f := NewFloatCounter("test.float")
	Observe("test.gauge", 1) // disabled: must not create the series
	Enable()
	defer cleanup()
	c.Add(3)
	c.Add(4)
	f.Add(1.5)
	f.Add(2.5)
	Observe("test.gauge", 0.5)
	Observe("test.gauge", 0.125)
	if c.Value() != 7 {
		t.Fatalf("counter = %d want 7", c.Value())
	}
	if f.Value() != 4 {
		t.Fatalf("float counter = %v want 4", f.Value())
	}
	if _, series, _ := Snapshot(); len(series) != 1 || series[0].Last != 0.125 || series[0].Sum != 0.625 || series[0].Count != 2 {
		t.Fatalf("series = %+v, want one with last 0.125, sum 0.625, count 2", series)
	}
	if got := MetricValueOf("test.gauge"); got != 0.125 {
		t.Fatalf("MetricValueOf of an unlabeled series = %v, want its last value 0.125", got)
	}
	if got := MetricValueOf("test.counter"); got != 7 {
		t.Fatalf("MetricValueOf = %v want 7", got)
	}
	// Enable resets.
	Enable()
	if c.Value() != 0 || f.Value() != 0 {
		t.Fatal("Enable should reset counters")
	}
	if _, series, _ := Snapshot(); len(series) != 0 {
		t.Fatal("Enable should drop series")
	}
}

func TestJSONLSink(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	c := NewCounter("test.jsonl.counter")
	Enable(NewJSONLSink(&buf))
	defer cleanup()
	c.Add(9)
	sp := Start("phase.a")
	sp.SetStr("spec", "ab,bc->ac").SetInt("bytes", 128)
	sp.End()
	if err := Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines (meta, span, metrics), got %d: %q", len(lines), buf.String())
	}
	var meta struct {
		Type        string `json:"type"`
		Rank        int    `json:"rank"`
		PID         int    `json:"pid"`
		EpochUnixNS int64  `json:"epoch_unix_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line not JSON: %v", err)
	}
	if meta.Type != "meta" || meta.Rank != -1 || meta.PID <= 0 || meta.EpochUnixNS <= 0 {
		t.Fatalf("bad leading meta record: %+v", meta)
	}
	var span struct {
		Type  string                 `json:"type"`
		Name  string                 `json:"name"`
		Attrs map[string]interface{} `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatalf("span line not JSON: %v", err)
	}
	if span.Type != "span" || span.Name != "phase.a" || span.Attrs["spec"] != "ab,bc->ac" {
		t.Fatalf("bad span record: %+v", span)
	}
	var metrics struct {
		Type    string             `json:"type"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &metrics); err != nil {
		t.Fatalf("metrics line not JSON: %v", err)
	}
	if metrics.Metrics["test.jsonl.counter"] != 9 {
		t.Fatalf("metrics record missing counter: %+v", metrics)
	}
}

func TestChromeTraceSinkNesting(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	Enable(NewChromeTraceSink(&buf))
	defer cleanup()

	sweep := Start("bmps.sweep")
	contraction := sweep.StartChild("einsum")
	gemm := contraction.StartChild("einsum.gemm")
	time.Sleep(200 * time.Microsecond)
	gemm.End()
	contraction.End()
	sweep.End()
	if err := Flush(); err != nil {
		t.Fatal(err)
	}

	var evs []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	for i, e := range evs {
		byName[e.Name] = i
	}
	for _, name := range []string{"bmps.sweep", "einsum", "einsum.gemm"} {
		i, ok := byName[name]
		if !ok {
			t.Fatalf("trace missing span %q", name)
		}
		if evs[i].Ph != "X" {
			t.Fatalf("span %q has phase %q, want X", name, evs[i].Ph)
		}
	}
	s, c, g := evs[byName["bmps.sweep"]], evs[byName["einsum"]], evs[byName["einsum.gemm"]]
	if !(s.TS <= c.TS && c.TS+c.Dur <= s.TS+s.Dur+1) {
		t.Fatalf("einsum not nested in sweep: %+v %+v", s, c)
	}
	if !(c.TS <= g.TS && g.TS+g.Dur <= c.TS+c.Dur+1) {
		t.Fatalf("gemm not nested in einsum: %+v %+v", c, g)
	}
}

// TestConcurrentCounters exercises the lock-free paths under the race
// detector: many goroutines hammering counters, floats, and gauges while
// spans open and close on the main goroutine.
func TestConcurrentCounters(t *testing.T) {
	cleanup()
	c := NewCounter("test.race.counter")
	f := NewFloatCounter("test.race.float")
	Enable(PhaseSummary())
	defer cleanup()

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
				f.Add(0.5)
				Observe("test.race.gauge", float64(w))
				ObserveHist("test.race.hist", Pow2Bounds, float64(i%9), Label{"w", "x"})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		sp := Start("race.phase")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d want %d", c.Value(), workers*iters)
	}
	if f.Value() != workers*iters*0.5 {
		t.Fatalf("float = %v want %v", f.Value(), workers*iters*0.5)
	}
}

// TestConcurrentSpans verifies span Start/End is safe (if not
// hierarchy-meaningful) from multiple goroutines.
func TestConcurrentSpans(t *testing.T) {
	cleanup()
	Enable(NewJSONLSink(&bytes.Buffer{}), PhaseSummary())
	defer cleanup()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := Start("concurrent")
				sp.End()
			}
		}()
	}
	wg.Wait()
	stats := Summary()
	var total int64
	for _, s := range stats {
		if s.Name == "concurrent" {
			total = s.Count
		}
	}
	if total != 2000 {
		t.Fatalf("span count = %d want 2000", total)
	}
}

func TestWriteSummaryTable(t *testing.T) {
	cleanup()
	Enable(PhaseSummary())
	defer cleanup()
	sp := Start("phase.x")
	sp.SetFloat("modeled_s", 1.5)
	sp.End()
	var buf bytes.Buffer
	WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "phase.x") || !strings.Contains(out, "modeled_s") {
		t.Fatalf("summary table missing content:\n%s", out)
	}
}
