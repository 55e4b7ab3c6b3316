package obs

import (
	"sync"
	"testing"
)

// collectSink records every completed span event for inspection.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) SpanEnd(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) Flush() error { return nil }

func (c *collectSink) byName(name string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// A Start on a goroutine with no open span must attach to the trace
// root, not to whatever span another goroutine happens to have open.
func TestForeignGoroutineStartAttachesToRoot(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	outer := Start("outer")
	done := make(chan struct{})
	go func() {
		defer close(done)
		inner := Start("foreign")
		inner.End()
	}()
	<-done
	outer.End()

	foreign := sink.byName("foreign")
	if len(foreign) != 1 {
		t.Fatalf("want 1 foreign span, got %d", len(foreign))
	}
	if foreign[0].Parent != 0 {
		t.Fatalf("foreign-goroutine span parented under id %d; want trace root (0)", foreign[0].Parent)
	}
	if foreign[0].Depth != 0 {
		t.Fatalf("foreign-goroutine span depth = %d; want 0", foreign[0].Depth)
	}
}

// StartChild parents explicitly across goroutines: a task span started
// from the coordinator's handle on a worker goroutine, and a leaf started
// from the task's handle, form the chain outer -> task -> leaf whatever
// goroutine each runs on.
func TestStartChildAdoptNesting(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	outer := Start("outer")
	done := make(chan struct{})
	go func() {
		defer close(done)
		task := outer.StartChild("task")
		leaf := task.StartChild("leaf")
		leaf.End()
		task.End()
	}()
	<-done
	outer.End()

	outerEv := sink.byName("outer")
	taskEv := sink.byName("task")
	leafEv := sink.byName("leaf")
	if len(outerEv) != 1 || len(taskEv) != 1 || len(leafEv) != 1 {
		t.Fatalf("missing spans: outer=%d task=%d leaf=%d", len(outerEv), len(taskEv), len(leafEv))
	}
	if taskEv[0].Parent != outerEv[0].ID {
		t.Fatalf("task parent = %d, want outer id %d", taskEv[0].Parent, outerEv[0].ID)
	}
	if leafEv[0].Parent != taskEv[0].ID {
		t.Fatalf("leaf parent = %d, want task id %d", leafEv[0].Parent, taskEv[0].ID)
	}
	if taskEv[0].Depth != 1 || leafEv[0].Depth != 2 {
		t.Fatalf("depths task=%d leaf=%d, want 1 and 2", taskEv[0].Depth, leafEv[0].Depth)
	}
}

// The current span is whatever handle the caller holds, per goroutine by
// construction: two goroutines that each hold their own handle start
// children at the same time and every child lands under the handle it was
// started from, while a Start with no handle lands at the trace root even
// though its goroutine has a span open.
func TestCurrentIsPerGoroutine(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	var wg sync.WaitGroup
	roots := make([]*Span, 2)
	for g := range roots {
		roots[g] = Start("root")
		wg.Add(1)
		go func(own *Span) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				own.StartChild("child").SetInt("owner", own.id).End()
			}
			Start("orphan").End()
		}(roots[g])
	}
	wg.Wait()
	for _, r := range roots {
		r.End()
	}

	children := sink.byName("child")
	if len(children) != 200 {
		t.Fatalf("want 200 child spans, got %d", len(children))
	}
	for _, e := range children {
		if e.Parent != e.Attrs[0].Int {
			t.Fatalf("child started from handle %d is parented under %d", e.Attrs[0].Int, e.Parent)
		}
	}
	for _, e := range sink.byName("orphan") {
		if e.Parent != 0 || e.Depth != 0 {
			t.Fatalf("handle-less span parented under %d at depth %d; want the trace root", e.Parent, e.Depth)
		}
	}
}

// dropSink discards every event: the cheapest consumer a span can have.
type dropSink struct{}

func (dropSink) SpanEnd(Event) {}
func (dropSink) Flush() error  { return nil }

// Eight goroutines build nested spans from handles at once (run under
// -race by `make race`): every emitted event's parent is the handle it
// was started from, none attaches to another goroutine's span, and a
// start+end pair delivered to a dropping sink allocates the span record
// and nothing else.
func TestHandleSpansConcurrent(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	const goroutines, outerN, innerN = 8, 20, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := Start("lane").SetTrack(g+1).SetInt("g", int64(g))
			for i := 0; i < outerN; i++ {
				outer := lane.StartChild("outer").SetInt("want", lane.id).SetInt("g", int64(g))
				for j := 0; j < innerN; j++ {
					outer.StartChild("inner").SetInt("want", outer.id).SetInt("g", int64(g)).End()
				}
				outer.End()
			}
			lane.End()
		}(g)
	}
	wg.Wait()

	sink.mu.Lock()
	events := append([]Event(nil), sink.events...)
	sink.mu.Unlock()
	if want := goroutines * (1 + outerN*(1+innerN)); len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	laneOf := map[int64]int64{} // span id -> goroutine that started it
	for _, e := range events {
		laneOf[e.ID] = e.Attrs[len(e.Attrs)-1].Int
	}
	for _, e := range events {
		g := e.Attrs[len(e.Attrs)-1].Int
		if e.Track != int(g)+1 {
			t.Fatalf("%s span of goroutine %d on track %d", e.Name, g, e.Track)
		}
		if e.Name == "lane" {
			if e.Parent != 0 {
				t.Fatalf("lane span parented under %d, want the root", e.Parent)
			}
			continue
		}
		if want := e.Attrs[0].Int; e.Parent != want {
			t.Fatalf("%s span started from handle %d is parented under %d", e.Name, want, e.Parent)
		}
		if laneOf[e.Parent] != g {
			t.Fatalf("%s span of goroutine %d attached to a span of goroutine %d", e.Name, g, laneOf[e.Parent])
		}
	}

	Enable(dropSink{})
	parent := Start("parent")
	if allocs := testing.AllocsPerRun(1000, func() { parent.StartChild("leaf").End() }); allocs > 2 {
		t.Fatalf("span start+end into a dropping sink allocates %.0f times, want <= 2", allocs)
	}
	parent.End()
}

// SetTrack propagates to children, including StartChild children.
func TestTrackInheritance(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	parent := Start("parent").SetTrack(3)
	child := parent.StartChild("child")
	child.End()
	parent.End()

	if ev := sink.byName("child"); len(ev) != 1 || ev[0].Track != 3 {
		t.Fatalf("child track = %+v, want 3", ev)
	}
}

// The scratch-memory gauge tracks live bytes and a resettable peak.
func TestTrackBytesPeak(t *testing.T) {
	cleanup()
	baseLive := LiveBytes()

	TrackBytes(100)
	TrackBytes(200)
	if got := LiveBytes() - baseLive; got != 300 {
		t.Fatalf("live delta = %d, want 300", got)
	}
	if PeakBytes() < baseLive+300 {
		t.Fatalf("peak %d below live high water %d", PeakBytes(), baseLive+300)
	}
	TrackBytes(-250)
	peakBefore := PeakBytes()
	if got := LiveBytes() - baseLive; got != 50 {
		t.Fatalf("live delta after release = %d, want 50", got)
	}
	if PeakBytes() != peakBefore {
		t.Fatal("peak must not fall when bytes are released")
	}
	// ResetCounters rebases the peak to the current live level.
	ResetCounters()
	if PeakBytes() != LiveBytes() {
		t.Fatalf("after reset peak %d != live %d", PeakBytes(), LiveBytes())
	}
	TrackBytes(-50) // drain this test's remaining bytes
	cleanup()
}
