// Package obsfile reads the JSON-lines trace logs written by
// obs.JSONLSink and reconstructs the span tree, per-rank machine-model
// timelines, and the final counter snapshot for offline analysis. It is
// the library behind cmd/koala-obs: phase summaries (matching
// obs.WriteSummary), top-K span rankings, critical-path extraction
// through the task DAG, per-rank utilization tables, and deterministic
// trace diffing.
package obsfile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"gokoala/internal/obs"
)

// Span is one completed span read back from a trace log, linked into
// the parent/child tree the explicit span handles recorded.
type Span struct {
	Name     string
	ID       int64
	Parent   int64
	OffsetUS float64
	DurUS    float64
	Depth    int
	Track    int
	Attrs    map[string]interface{}

	// Children are the spans whose Parent is this span, in start order.
	Children []*Span

	selfUS float64
}

// EndUS is the span's end offset in microseconds from the trace origin.
func (s *Span) EndUS() float64 { return s.OffsetUS + s.DurUS }

// SelfUS is the span's exclusive time: duration minus the summed
// durations of its children, clamped at zero (concurrent children can
// sum past the parent) — the same definition obs.Summary uses.
func (s *Span) SelfUS() float64 { return s.selfUS }

// AttrFloat returns a numeric attribute (ints and floats both decode as
// float64 from JSON).
func (s *Span) AttrFloat(key string) (float64, bool) {
	v, ok := s.Attrs[key].(float64)
	return v, ok
}

// TraceMeta identifies the process that wrote a trace log.
type TraceMeta struct {
	// Rank is the meta line's rank field; obs.JSONLSink writes -1.
	Rank int
	// PID is the writer's OS process id.
	PID int
	// EpochUnixNS is the writer's trace origin on its own wall clock
	// (unix nanoseconds).
	EpochUnixNS int64
}

// Trace is one parsed trace log.
type Trace struct {
	// Spans holds every span record in file (= end) order.
	Spans []*Span
	// Roots are the spans with no parent, in start order.
	Roots []*Span
	// Ranks holds the per-rank modeled timelines, in file order.
	Ranks []obs.RankRecord
	// Metrics is the final counter snapshot (the last metrics record in
	// the file; nil when the log was cut before Flush).
	Metrics map[string]float64
	// Meta is the leading writer-identity record (nil in logs predating
	// it).
	Meta *TraceMeta
	// Truncated reports that the final line of the log failed to parse
	// and was dropped — the signature of a writer killed mid-record.
	// Everything before it is intact.
	Truncated bool

	byID map[int64]*Span
}

// Span returns the span with the given id, or nil.
func (t *Trace) Span(id int64) *Span { return t.byID[id] }

// WallUS is the traced wall clock: the latest span end offset.
func (t *Trace) WallUS() float64 {
	var wall float64
	for _, s := range t.Spans {
		if end := s.EndUS(); end > wall {
			wall = end
		}
	}
	return wall
}

// record is the union of the JSONL record types, keyed by "type".
type record struct {
	Type string `json:"type"`

	// span fields
	Name     string                 `json:"name"`
	ID       int64                  `json:"id"`
	Parent   int64                  `json:"parent"`
	OffsetUS float64                `json:"offset_us"`
	DurUS    float64                `json:"dur_us"`
	Depth    int                    `json:"depth"`
	Track    int                    `json:"track"`
	Attrs    map[string]interface{} `json:"attrs"`

	// rank fields
	Grid        string            `json:"grid"`
	Rank        int               `json:"rank"`
	CompSeconds float64           `json:"comp_s"`
	LatSeconds  float64           `json:"lat_s"`
	BWSeconds   float64           `json:"bw_s"`
	WaitSeconds float64           `json:"wait_s"`
	Segments    []obs.RankSegment `json:"segments"`

	// metrics fields
	Metrics map[string]float64 `json:"metrics"`

	// meta fields (Rank is shared with the rank record above)
	PID         int   `json:"pid"`
	EpochUnixNS int64 `json:"epoch_unix_ns"`
}

// Read parses a JSONL trace log and links the span tree. A final line
// that fails to parse is dropped and flagged (Trace.Truncated) rather
// than failing the read: a writer killed mid-run leaves exactly that — a
// log cut mid-record. A malformed line with intact lines after it is
// still an error.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{byID: map[int64]*Span{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	var badLine error
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if badLine != nil {
			// The earlier failure was not on the final line after all.
			return nil, badLine
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			badLine = fmt.Errorf("line %d: %w", line, err)
			continue
		}
		switch rec.Type {
		case "span":
			sp := &Span{
				Name: rec.Name, ID: rec.ID, Parent: rec.Parent,
				OffsetUS: rec.OffsetUS, DurUS: rec.DurUS,
				Depth: rec.Depth, Track: rec.Track, Attrs: rec.Attrs,
			}
			t.Spans = append(t.Spans, sp)
			t.byID[sp.ID] = sp
		case "rank":
			t.Ranks = append(t.Ranks, obs.RankRecord{
				Grid: rec.Grid, Rank: rec.Rank,
				CompSeconds: rec.CompSeconds, LatSeconds: rec.LatSeconds,
				BWSeconds: rec.BWSeconds, WaitSeconds: rec.WaitSeconds,
				Segments: rec.Segments,
			})
		case "metrics":
			t.Metrics = rec.Metrics
		case "meta":
			if t.Meta == nil {
				t.Meta = &TraceMeta{Rank: rec.Rank, PID: rec.PID, EpochUnixNS: rec.EpochUnixNS}
			}
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Truncated = badLine != nil
	t.link()
	return t, nil
}

// ReadFile parses the trace log at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// link builds the parent/child tree and computes exclusive times.
// Records arrive in end order (children before parents), so linking
// runs after the whole file is read. A span whose parent id never
// appears (the log was cut mid-run) is treated as a root.
func (t *Trace) link() {
	for _, s := range t.Spans {
		if p := t.byID[s.Parent]; p != nil && p != s {
			p.Children = append(p.Children, s)
		} else {
			t.Roots = append(t.Roots, s)
		}
	}
	byStart := func(spans []*Span) {
		sort.SliceStable(spans, func(i, j int) bool {
			return spans[i].OffsetUS < spans[j].OffsetUS
		})
	}
	byStart(t.Roots)
	for _, s := range t.Spans {
		byStart(s.Children)
		var child float64
		for _, c := range s.Children {
			child += c.DurUS
		}
		s.selfUS = s.DurUS - child
		if s.selfUS < 0 {
			s.selfUS = 0
		}
	}
}
