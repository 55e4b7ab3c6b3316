package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// phaseSummary is the sink behind PhaseSummary: per-span-name totals.
type phaseSummary struct {
	mu  sync.Mutex
	agg map[string]*phaseAgg
}

// phaseAgg accumulates one span name.
type phaseAgg struct {
	count int64
	total time.Duration
	self  time.Duration
	attrs map[string]float64
}

// PhaseSummary returns the sink that aggregates completed spans per span
// name — the phase breakdown Summary returns and WriteSummary prints.
// Install it with Enable like any other sink; a run that installs none
// builds no spans and has no summary.
func PhaseSummary() Sink { return &phaseSummary{agg: map[string]*phaseAgg{}} }

func (p *phaseSummary) SpanEnd(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.agg[e.Name]
	if a == nil {
		a = &phaseAgg{attrs: map[string]float64{}}
		p.agg[e.Name] = a
	}
	a.count++
	a.total += e.Dur
	a.self += e.self
	for _, at := range e.Attrs {
		switch at.Kind {
		case 1:
			a.attrs[at.Key] += at.Num
		case 2:
			a.attrs[at.Key] += float64(at.Int)
		}
	}
}

func (*phaseSummary) Flush() error { return nil }

// installedSummary returns the first installed PhaseSummary sink.
func installedSummary() *phaseSummary {
	for _, s := range installed() {
		if p, ok := s.(*phaseSummary); ok {
			return p
		}
	}
	return nil
}

// PhaseStat is one row of the phase summary.
type PhaseStat struct {
	Name  string
	Count int64
	// Total is the cumulative wall time of all spans with this name;
	// Self excludes time spent in child spans, so Self sums to the
	// traced wall time without double counting.
	Total time.Duration
	Self  time.Duration
	// Attrs holds the per-name sums of numeric span attributes (e.g.
	// modeled_s, comm_bytes).
	Attrs map[string]float64
}

// Summary returns the per-phase aggregation the installed PhaseSummary
// sink collected since Enable (or the last ResetSummary), sorted by
// descending total time; nil when none is installed.
func Summary() []PhaseStat {
	p := installedSummary()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseStat, 0, len(p.agg))
	for name, a := range p.agg {
		attrs := make(map[string]float64, len(a.attrs))
		for k, v := range a.attrs {
			if !math.IsNaN(v) {
				attrs[k] = v
			}
		}
		out = append(out, PhaseStat{Name: name, Count: a.count, Total: a.total, Self: a.self, Attrs: attrs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ResetSummary clears the per-phase aggregation (counters are separate;
// see ResetCounters). Useful between experiments sharing one Enable.
func ResetSummary() {
	if p := installedSummary(); p != nil {
		p.mu.Lock()
		clear(p.agg)
		p.mu.Unlock()
	}
}

// WriteSummary prints the per-phase breakdown of Summary as an aligned
// text table: span name, call count, total and self wall seconds, and the
// per-name sums of numeric span attributes (modeled seconds, comm bytes,
// ...). Numeric-attribute columns are the union over all phases, so
// modeled seconds from the dist machine model line up against measured
// seconds.
func WriteSummary(w io.Writer) {
	stats := Summary()
	if len(stats) == 0 {
		fmt.Fprintln(w, "obs: no spans recorded")
		return
	}
	attrKeys := map[string]bool{}
	for _, s := range stats {
		for k := range s.Attrs {
			attrKeys[k] = true
		}
	}
	keys := make([]string, 0, len(attrKeys))
	for k := range attrKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	header := append([]string{"phase", "count", "total_s", "self_s"}, keys...)
	rows := make([][]string, 0, len(stats))
	for _, s := range stats {
		row := []string{
			s.Name,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.4f", s.Total.Seconds()),
			fmt.Sprintf("%.4f", s.Self.Seconds()),
		}
		for _, k := range keys {
			if v, ok := s.Attrs[k]; ok {
				row = append(row, formatMetric(v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	if p := PeakBytes(); p > 0 {
		fmt.Fprintf(w, "peak scratch bytes: %d\n", p)
	}
}

// WriteMetrics prints the current counter/gauge snapshot, one per line.
func WriteMetrics(w io.Writer) {
	ms := Metrics()
	if len(ms) == 0 {
		return
	}
	width := 0
	for _, m := range ms {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-*s  %s\n", width, m.Name, formatMetric(m.Value))
	}
}

// formatMetric renders integers without exponents and everything else
// compactly.
func formatMetric(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}
