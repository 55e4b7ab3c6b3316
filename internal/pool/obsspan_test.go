package pool

import (
	"sync"
	"testing"

	"gokoala/internal/obs"
)

// recordSink collects completed span events.
type recordSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recordSink) SpanEnd(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recordSink) Flush() error { return nil }

func attrs(e obs.Event) map[string]obs.Attr {
	m := map[string]obs.Attr{}
	for _, a := range e.Attrs {
		m[a.Key] = a
	}
	return m
}

// Every group task must get a span parented under its group's span,
// carrying the group name, task index, worker slot and queue wait —
// whether it ran on a worker goroutine or inline.
func TestGroupTaskSpansAttribution(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	sink := &recordSink{}
	obs.Enable(sink)
	defer func() {
		obs.Disable()
		obs.ResetCounters()
	}()

	const n = 8
	before := obs.MetricValueOf("pool.task.count")
	Tasks(nil, "test-group", n, func(i int, _ *obs.Span) {})

	var group obs.Event
	var tasks []obs.Event
	sink.mu.Lock()
	for _, e := range sink.events {
		switch e.Name {
		case "pool.group":
			group = e
		case "pool.task":
			tasks = append(tasks, e)
		}
	}
	sink.mu.Unlock()

	if group.ID == 0 {
		t.Fatal("no pool.group span recorded")
	}
	if got := attrs(group)["name"].Str; got != "test-group" {
		t.Fatalf("group span name attr = %q", got)
	}
	if len(tasks) != n {
		t.Fatalf("want %d task spans, got %d", n, len(tasks))
	}
	seenTask := map[int64]bool{}
	for _, e := range tasks {
		if e.Parent != group.ID {
			t.Fatalf("task span parent %d, want group id %d", e.Parent, group.ID)
		}
		a := attrs(e)
		if a["group"].Str != "test-group" {
			t.Fatalf("task group attr = %q", a["group"].Str)
		}
		if _, ok := a["queue_wait_s"]; !ok {
			t.Fatal("task span missing queue_wait_s")
		}
		worker, ok := a["worker"]
		if !ok {
			t.Fatal("task span missing worker slot")
		}
		if worker.Int >= 0 && e.Track != int(worker.Int)+1 {
			t.Fatalf("worker %d task on track %d, want %d", worker.Int, e.Track, worker.Int+1)
		}
		idx := a["task"].Int
		if idx < 0 || idx >= n || seenTask[idx] {
			t.Fatalf("bad or duplicate task index %d", idx)
		}
		seenTask[idx] = true
	}
	// The deterministic task counter counts every submission exactly once.
	if got := obs.MetricValueOf("pool.task.count") - before; got != n {
		t.Fatalf("pool.task.count advanced by %v, want %d", got, n)
	}
}

// A task body is handed its task span: spans it starts from that handle
// nest under the task, not under the coordinator's span — the attribution
// bug explicit handles exist to fix.
func TestSpansInsideTaskNestUnderTask(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	sink := &recordSink{}
	obs.Enable(sink)
	defer func() {
		obs.Disable()
		obs.ResetCounters()
	}()

	coord := obs.Start("coordinator")
	Tasks(coord, "g", 4, func(i int, task *obs.Span) {
		task.StartChild("kernel").End()
	})
	coord.End()

	taskIDs := map[int64]bool{}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.events {
		if e.Name == "pool.task" {
			taskIDs[e.ID] = true
		}
	}
	kernels := 0
	for _, e := range sink.events {
		if e.Name != "kernel" {
			continue
		}
		kernels++
		if !taskIDs[e.Parent] {
			t.Fatalf("kernel span parented under %d, not a task span", e.Parent)
		}
	}
	if kernels != 4 {
		t.Fatalf("want 4 kernel spans, got %d", kernels)
	}
}

// A multi-chunk ForMax records a pool.for span at the trace root (a kernel
// has no handle to its caller) with the worker-side chunks as its
// children; the deterministic counters must not depend on it.
func TestForMaxChunkSpans(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	sink := &recordSink{}
	obs.Enable(sink)
	defer func() {
		obs.Disable()
		obs.ResetCounters()
	}()

	root := obs.Start("kernel")
	var mu sync.Mutex
	covered := make([]bool, 64)
	ForMax(0, 64, 1, func(lo, hi int) {
		mu.Lock()
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
		mu.Unlock()
	})
	root.End()

	for i, ok := range covered {
		if !ok {
			t.Fatalf("index %d not covered with spans enabled", i)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var forSpan obs.Event
	chunks := 0
	for _, e := range sink.events {
		switch e.Name {
		case "pool.for":
			forSpan = e
		case "pool.chunk":
			chunks++
		}
	}
	if forSpan.ID == 0 {
		t.Fatal("no pool.for span for a multi-chunk ForMax")
	}
	if forSpan.Parent != 0 {
		t.Fatalf("pool.for parented under %d; a kernel dispatch is a root record", forSpan.Parent)
	}
	for _, e := range sink.events {
		if e.Name == "pool.chunk" {
			if e.Parent != forSpan.ID {
				t.Fatalf("chunk parent %d, want pool.for id %d", e.Parent, forSpan.ID)
			}
			a := attrs(e)
			if _, ok := a["worker"]; !ok {
				t.Fatal("chunk span missing worker attr")
			}
		}
	}
	if chunks == 0 {
		t.Fatal("expected at least one worker-dispatched chunk span")
	}
}
