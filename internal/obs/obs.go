// Package obs is the unified tracing and metrics layer of gokoala: a
// lightweight, allocation-conscious substrate every layer (backend,
// einsum, dist, peps, mps, bench) reports into, so a run can be broken
// down into the paper's phases — contraction, orthogonalization, SVD,
// communication — end to end (the accounting behind paper Figures 7-10
// and Table II).
//
// One switch, Enable/Disable, turns the metric registry on (registry.go:
// counters, labeled series, histograms); while it is off every entry
// point is one atomic load. Spans are built only when something will
// read them, that is when Enable installed at least one sink:
//
//   - JSONLSink: one JSON object per completed span, plus a final
//     counters record; machine-readable event log (the input format of
//     cmd/koala-obs).
//   - ChromeTraceSink: Chrome trace_event JSON loadable in
//     chrome://tracing or https://ui.perfetto.dev.
//   - PhaseSummary: the per-span-name totals WriteSummary prints.
//
// Span hierarchy is explicit: a span's parent is the handle it was
// started from (StartChild), and a nil handle is the trace root. Nothing
// is discovered from the calling goroutine; code that fans work out
// hands each task its span (pool.Group), and the lattice layers carry
// the current span in the engine value they already pass down
// (backend.Scope). Starting and ending a span takes no lock in this
// package; sinks synchronize themselves.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global fast-path switch; all public entry points load
// it before doing any work.
var enabled atomic.Bool

// Enabled reports whether the metric registry (and, with a sink
// installed, span collection) is on.
func Enabled() bool { return enabled.Load() }

// nextSpanID hands out span ids, unique within a process run. Ids exist
// so offline analyzers (cmd/koala-obs) can rebuild the span tree from a
// JSONL log; they are assigned in start order and are therefore not
// deterministic across worker counts — analyzers must not diff them.
var nextSpanID atomic.Int64

// tracerState is what a span start or end reads: immutable once
// published, replaced whole by Enable/AddSink/Disable.
type tracerState struct {
	sinks  []Sink
	origin time.Time // trace epoch for relative timestamps
}

var (
	tracer   atomic.Pointer[tracerState] // nil while disabled
	tracerMu sync.Mutex                  // serializes the writers of tracer
)

// installed returns the installed sinks (nil while disabled).
func installed() []Sink {
	if st := tracer.Load(); st != nil {
		return st.sinks
	}
	return nil
}

// Enable turns collection on, installing the given sinks. Zero sinks is
// valid and means the registry only: no span is built. It resets the
// registry so a run's totals start from zero.
func Enable(sinks ...Sink) {
	tracerMu.Lock()
	tracer.Store(&tracerState{sinks: append([]Sink(nil), sinks...), origin: time.Now()})
	tracerMu.Unlock()
	ResetCounters()
	enabled.Store(true)
}

// AddSink attaches one more sink to an already-enabled tracer without
// resetting the registry or the trace origin — the way a driver routes
// its own spans into a per-run rank-trace directory after -trace/-metrics
// already installed their sinks. No-op while disabled.
func AddSink(s Sink) {
	tracerMu.Lock()
	defer tracerMu.Unlock()
	st := tracer.Load()
	if st == nil || s == nil {
		return
	}
	tracer.Store(&tracerState{sinks: append(append([]Sink(nil), st.sinks...), s), origin: st.origin})
}

// Origin returns the trace epoch: the wall-clock instant of the Enable
// call that all span offsets are relative to. Zero while disabled.
// Multi-process trace merging (obsfile.MergeRanks) aligns per-rank logs
// by pairing each log's epoch with the measured inter-process clock
// offset.
func Origin() time.Time {
	if st := tracer.Load(); st != nil {
		return st.origin
	}
	return time.Time{}
}

// Disable turns collection off and flushes and detaches the sinks,
// returning the first flush error. Spans still open are dropped.
func Disable() error {
	enabled.Store(false)
	tracerMu.Lock()
	st := tracer.Swap(nil)
	tracerMu.Unlock()
	if st == nil {
		return nil
	}
	return flush(st.sinks)
}

// Flush flushes every installed sink, returning the first error.
func Flush() error { return flush(installed()) }

func flush(sinks []Sink) error {
	var first error
	for _, s := range sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Attr is one key/value annotation on a span. Values are kept as the
// small set of types the sinks know how to serialize.
type Attr struct {
	Key string
	Str string
	Num float64
	Int int64
	// Kind: 0 string, 1 float, 2 int.
	Kind uint8
}

// Span is one timed region. A nil *Span is valid: it is the trace root
// as a parent, and every other method is a no-op on it, which is what
// all of them are while no sink is installed.
//
// A span is owned by the goroutine that starts it until End; the
// attribute setters are not synchronized. The one cross-goroutine field,
// childNs, is atomic: children may end on any goroutine.
type Span struct {
	name    string
	start   time.Time
	parent  *Span
	depth   int
	id      int64
	track   int
	attrs   []Attr
	attrBuf [4]Attr // backs attrs until a fifth attribute spills to the heap
	childNs atomic.Int64
}

// Start opens a span at the trace root: the form for code with no handle
// in reach (a CLI's outermost region, a kernel dispatch). While no sink
// is installed it returns nil without allocating.
func Start(name string) *Span { return (*Span)(nil).StartChild(name) }

// StartChild opens a span parented under s, from any goroutine; a nil s
// parents it under the trace root. The child inherits s's display track.
// Returns nil while no sink is installed.
func (s *Span) StartChild(name string) *Span {
	if st := tracer.Load(); st == nil || len(st.sinks) == 0 {
		return nil
	}
	c := &Span{name: name, start: time.Now(), parent: s, id: nextSpanID.Add(1)}
	c.attrs = c.attrBuf[:0]
	if s != nil {
		c.depth = s.depth + 1
		c.track = s.track
	}
	return c
}

// SetTrack assigns the span (and, by inheritance, its future children)
// to a display track: 0 is the orchestrator, positive values are worker
// or rank lanes. Tracks map to Chrome trace tids.
func (s *Span) SetTrack(t int) *Span {
	if s == nil {
		return nil
	}
	s.track = t
	return s
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, Kind: 0})
	return s
}

// SetFloat annotates the span with a numeric attribute. Float attributes
// are summed per span name in the phase summary, which is how modeled
// seconds from the dist machine model appear alongside measured seconds.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Num: v, Kind: 1})
	return s
}

// SetInt annotates the span with an integer attribute. Like float
// attributes, integer attributes are summed per span name in the
// phase summary.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v, Kind: 2})
	return s
}

// Event is a completed span as delivered to sinks. Offset is relative to
// the Enable call so traces start at t=0. ID/Parent let offline readers
// rebuild the tree (Parent 0 = trace root); Track is the display lane.
type Event struct {
	Name   string
	Offset time.Duration
	Dur    time.Duration
	Depth  int
	ID     int64
	Parent int64
	Track  int
	Attrs  []Attr
	// self is Dur less the time spent in children that had ended by the
	// time the span did (the phase summary's self column).
	self time.Duration
}

// End closes the span and delivers it to the sinks. Safe on nil
// receivers and after Disable.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	st := tracer.Load()
	if st == nil {
		return
	}
	ev := Event{
		Name:   s.name,
		Offset: s.start.Sub(st.origin),
		Dur:    dur,
		Depth:  s.depth,
		ID:     s.id,
		Track:  s.track,
		Attrs:  s.attrs,
		self:   max(0, dur-time.Duration(s.childNs.Load())),
	}
	if s.parent != nil {
		s.parent.childNs.Add(int64(dur))
		ev.Parent = s.parent.id
	}
	for _, sk := range st.sinks {
		sk.SpanEnd(ev)
	}
}
