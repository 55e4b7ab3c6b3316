package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// Sink receives completed spans. Implementations must be safe for
// concurrent SpanEnd calls.
type Sink interface {
	// SpanEnd delivers one completed span.
	SpanEnd(Event)
	// Flush writes any buffered state (for file-backed sinks, the full
	// serialized trace) and leaves the sink reusable.
	Flush() error
}

// RankSegment is one coalesced stretch of a modeled rank's timeline:
// compute, message latency, byte transfer, or imbalance wait.
type RankSegment struct {
	Kind    string  `json:"kind"`
	Seconds float64 `json:"s"`
}

// RankRecord is the per-rank timeline snapshot a simulated grid emits
// (see dist.Grid.RankTimelines): the modeled time of one rank split by
// where it went, plus the (optionally truncated) segment sequence.
type RankRecord struct {
	Grid        string        `json:"grid"`
	Rank        int           `json:"rank"`
	CompSeconds float64       `json:"comp_s"`
	LatSeconds  float64       `json:"lat_s"`
	BWSeconds   float64       `json:"bw_s"`
	WaitSeconds float64       `json:"wait_s"`
	Segments    []RankSegment `json:"segments,omitempty"`
}

// TotalSeconds is the rank's full modeled timeline span.
func (r RankRecord) TotalSeconds() float64 {
	return r.CompSeconds + r.LatSeconds + r.BWSeconds + r.WaitSeconds
}

// RankSink is the optional sink extension that receives per-rank
// timelines; both built-in sinks implement it.
type RankSink interface {
	RankTimeline(RankRecord)
}

// EmitRank forwards a rank-timeline record to every installed sink that
// understands it. No-op while disabled.
func EmitRank(rec RankRecord) {
	for _, s := range installed() {
		if rs, ok := s.(RankSink); ok {
			rs.RankTimeline(rec)
		}
	}
}

// attrMap converts span attributes to a JSON-friendly map.
func attrMap(attrs []Attr) map[string]interface{} {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]interface{}, len(attrs))
	for _, a := range attrs {
		switch a.Kind {
		case 0:
			m[a.Key] = a.Str
		case 1:
			m[a.Key] = a.Num
		case 2:
			m[a.Key] = a.Int
		}
	}
	return m
}

// JSONLSink writes one JSON object per completed span to w, immediately,
// in end order: {"type":"span","name":...,"id":...,"parent":...,
// "offset_us":...,"dur_us":...,"depth":...,"track":...,"attrs":{...}}.
// Rank timelines append {"type":"rank"} records, and Flush appends a
// {"type":"metrics"} record with the current counter snapshot, so a
// finished log carries the run's totals. The first record is preceded by
// a {"type":"meta"} line identifying the writing process (rank -1, pid)
// and its trace epoch (Origin, unix ns). This is the format
// cmd/koala-obs (internal/obsfile) reads back.
type JSONLSink struct {
	mu       sync.Mutex
	w        io.Writer
	err      error
	metaDone bool
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// jsonlMeta is the leading record identifying the writing process. Rank
// is always -1: one process writes the whole log.
type jsonlMeta struct {
	Type        string `json:"type"`
	Rank        int    `json:"rank"`
	PID         int    `json:"pid"`
	EpochUnixNS int64  `json:"epoch_unix_ns"`
}

type jsonlSpan struct {
	Type     string                 `json:"type"`
	Name     string                 `json:"name"`
	ID       int64                  `json:"id"`
	Parent   int64                  `json:"parent,omitempty"`
	OffsetUS float64                `json:"offset_us"`
	DurUS    float64                `json:"dur_us"`
	Depth    int                    `json:"depth"`
	Track    int                    `json:"track,omitempty"`
	Attrs    map[string]interface{} `json:"attrs,omitempty"`
}

// write marshals one JSONL record — outside the lock, so concurrent span
// ends serialize on the write alone — and appends it, lazily emitting the
// meta line first. Lazy because the epoch is the tracer origin, and a
// sink may be constructed before (or attached after) Enable sets it; by
// the first record the tracer is live.
func (s *JSONLSink) write(rec interface{}) {
	b, err := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	if s.err == nil && !s.metaDone {
		s.metaDone = true
		var epoch int64
		if o := Origin(); !o.IsZero() {
			epoch = o.UnixNano()
		}
		meta, _ := json.Marshal(jsonlMeta{Type: "meta", Rank: -1, PID: os.Getpid(), EpochUnixNS: epoch})
		_, s.err = s.w.Write(append(meta, '\n'))
	}
	if s.err == nil {
		_, s.err = s.w.Write(append(b, '\n'))
	}
}

func (s *JSONLSink) SpanEnd(e Event) {
	s.write(jsonlSpan{
		Type:     "span",
		Name:     e.Name,
		ID:       e.ID,
		Parent:   e.Parent,
		OffsetUS: float64(e.Offset.Nanoseconds()) / 1e3,
		DurUS:    float64(e.Dur.Nanoseconds()) / 1e3,
		Depth:    e.Depth,
		Track:    e.Track,
		Attrs:    attrMap(e.Attrs),
	})
}

// RankTimeline appends one {"type":"rank"} record. The segment list is
// omitted: segments exist to draw per-rank lanes in the Chrome trace,
// while JSONL consumers (koala-obs report/diff, the regression gate)
// work from the exact totals — and a bench run flushes thousands of
// rank records, which at up to 2048 segments each would balloon the
// log by orders of magnitude.
func (s *JSONLSink) RankTimeline(rec RankRecord) {
	rec.Segments = nil
	s.write(struct {
		Type string `json:"type"`
		RankRecord
	}{"rank", rec})
}

// Flush appends the metrics record and returns any accumulated error.
func (s *JSONLSink) Flush() error {
	metrics := map[string]float64{}
	for _, m := range Metrics() {
		metrics[m.Name] = m.Value
	}
	s.write(struct {
		Type    string             `json:"type"`
		Metrics map[string]float64 `json:"metrics"`
	}{"metrics", metrics})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ChromeTraceSink buffers completed spans and serializes them on Flush
// as Chrome trace_event JSON (the "JSON Array Format"): complete ("X")
// events with microsecond timestamps, loadable in chrome://tracing or
// https://ui.perfetto.dev. Measured spans land on pid 1, one tid per
// track (orchestrator = tid 1, worker lanes above it); per-rank modeled
// timelines land on pid 2+ (one process per grid, one tid per rank), so
// the modeled machine appears as its own process next to the measured
// one. Counter totals are appended as a final counter ("C") event.
type ChromeTraceSink struct {
	mu     sync.Mutex
	w      io.Writer
	events []Event
	ranks  []RankRecord
}

// NewChromeTraceSink returns a trace_event sink writing to w on Flush.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink { return &ChromeTraceSink{w: w} }

func (s *ChromeTraceSink) SpanEnd(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// RankTimeline buffers one rank's modeled timeline for Flush.
func (s *ChromeTraceSink) RankTimeline(rec RankRecord) {
	s.mu.Lock()
	s.ranks = append(s.ranks, rec)
	s.mu.Unlock()
}

type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Flush serializes the buffered spans. The buffer is retained, so a
// later Flush rewrites the full trace only if w supports it; callers
// normally Flush once at exit.
func (s *ChromeTraceSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := make([]chromeEvent, 0, len(s.events)+1)
	var last float64
	for _, e := range s.events {
		ts := float64(e.Offset.Nanoseconds()) / 1e3
		dur := float64(e.Dur.Nanoseconds()) / 1e3
		if end := ts + dur; end > last {
			last = end
		}
		evs = append(evs, chromeEvent{
			Name: e.Name,
			Ph:   "X",
			TS:   ts,
			Dur:  dur,
			PID:  1,
			TID:  1 + e.Track,
			Args: attrMap(e.Attrs),
		})
	}
	// Per-rank modeled timelines: one process per grid, one thread per
	// rank, segments laid out from the trace origin in modeled time.
	gridPID := map[string]int{}
	for _, r := range s.ranks {
		pid, ok := gridPID[r.Grid]
		if !ok {
			pid = 2 + len(gridPID)
			gridPID[r.Grid] = pid
			evs = append(evs, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]interface{}{"name": "modeled " + r.Grid},
			})
		}
		cursor := 0.0
		for _, seg := range r.Segments {
			dur := seg.Seconds * 1e6
			evs = append(evs, chromeEvent{
				Name: seg.Kind,
				Ph:   "X",
				TS:   cursor,
				Dur:  dur,
				PID:  pid,
				TID:  1 + r.Rank,
			})
			cursor += dur
		}
	}
	counters := map[string]interface{}{}
	for _, m := range Metrics() {
		counters[m.Name] = m.Value
	}
	if len(counters) > 0 {
		evs = append(evs, chromeEvent{Name: "metrics", Ph: "C", TS: last, PID: 1, TID: 1, Args: counters})
	}
	b, err := json.MarshalIndent(evs, "", " ")
	if err != nil {
		return err
	}
	_, err = s.w.Write(append(b, '\n'))
	return err
}
