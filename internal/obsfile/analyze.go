package obsfile

import (
	"fmt"
	"sort"

	"gokoala/internal/dist"
)

// Phase is one row of the reconstructed per-phase summary: the same
// aggregation obs.Summary performs live (count, total, self, numeric
// attribute sums per span name), rebuilt from the log.
type Phase struct {
	Name    string
	Count   int64
	TotalUS float64
	SelfUS  float64
	Attrs   map[string]float64
}

// Phases aggregates spans by name, sorted by total time descending then
// name — the order obs.WriteSummary prints.
func (t *Trace) Phases() []Phase {
	agg := map[string]*Phase{}
	for _, s := range t.Spans {
		p := agg[s.Name]
		if p == nil {
			p = &Phase{Name: s.Name, Attrs: map[string]float64{}}
			agg[s.Name] = p
		}
		p.Count++
		p.TotalUS += s.DurUS
		p.SelfUS += s.SelfUS()
		for k := range s.Attrs {
			if v, ok := s.AttrFloat(k); ok {
				p.Attrs[k] += v
			}
		}
	}
	out := make([]Phase, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalUS != out[j].TotalUS {
			return out[i].TotalUS > out[j].TotalUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Span ranking orders for TopSpans.
const (
	ByInclusive = "inclusive" // span duration
	ByExclusive = "exclusive" // duration minus children
	ByFlops     = "flops"     // the span's flops attribute
)

// TopSpans returns the k highest-ranked individual spans by the given
// order (ByInclusive, ByExclusive, ByFlops). Spans without a flops
// attribute rank last under ByFlops.
func (t *Trace) TopSpans(k int, by string) []*Span {
	key := func(s *Span) float64 {
		switch by {
		case ByExclusive:
			return s.SelfUS()
		case ByFlops:
			v, _ := s.AttrFloat("flops")
			return v
		default:
			return s.DurUS
		}
	}
	sorted := append([]*Span(nil), t.Spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) > key(sorted[j]) })
	if k < len(sorted) {
		sorted = sorted[:k]
	}
	return sorted
}

// PathStep is one span on the critical path. SlackUS is how much longer
// the step could have run before delaying its container: the gap
// between the step's end and its parent's end (for roots, the traced
// wall clock).
type PathStep struct {
	Span    *Span
	SlackUS float64
}

// CriticalPath walks the longest exclusive-time chain through the span
// tree: for each span, CP = self + max over children CP(child); roots
// execute in sequence, so the full path concatenates each root's chain.
// Returns the steps in execution order and the total critical-path
// length in microseconds. The length is at most the summed root
// durations (each level's self time excludes all children), so for a
// serially-rooted trace it never exceeds the traced wall clock.
func (t *Trace) CriticalPath() ([]PathStep, float64) {
	memo := map[*Span]float64{}
	var cp func(s *Span) float64
	cp = func(s *Span) float64 {
		if v, ok := memo[s]; ok {
			return v
		}
		best := 0.0
		for _, c := range s.Children {
			if v := cp(c); v > best {
				best = v
			}
		}
		v := s.SelfUS() + best
		memo[s] = v
		return v
	}
	wall := t.WallUS()
	var steps []PathStep
	var total float64
	for _, root := range t.Roots {
		total += cp(root)
		s, containerEnd := root, wall
		for s != nil {
			steps = append(steps, PathStep{Span: s, SlackUS: containerEnd - s.EndUS()})
			var next *Span
			best := -1.0
			for _, c := range s.Children {
				if v := cp(c); v > best {
					best, next = v, c
				}
			}
			containerEnd = s.EndUS()
			s = next
		}
	}
	return steps, total
}

// RankRow is one modeled rank's utilization summary. Duplicate
// (grid, rank) records in the log (one per flushed suite) are summed.
type RankRow struct {
	Grid    string
	Rank    int
	CompS   float64
	LatS    float64
	BWS     float64
	WaitS   float64
	TotalS  float64
	UtilPct float64 // compute share of the rank's modeled timeline
}

// RankTable aggregates the per-rank timeline records into utilization
// rows, sorted by grid then rank.
func (t *Trace) RankTable() []RankRow {
	type gridRank struct {
		grid string
		rank int
	}
	agg := map[gridRank]*RankRow{}
	for _, r := range t.Ranks {
		k := gridRank{r.Grid, r.Rank}
		row := agg[k]
		if row == nil {
			row = &RankRow{Grid: r.Grid, Rank: r.Rank}
			agg[k] = row
		}
		row.CompS += r.CompSeconds
		row.LatS += r.LatSeconds
		row.BWS += r.BWSeconds
		row.WaitS += r.WaitSeconds
	}
	out := make([]RankRow, 0, len(agg))
	for _, row := range agg {
		row.TotalS = row.CompS + row.LatS + row.BWS + row.WaitS
		if row.TotalS > 0 {
			row.UtilPct = 100 * row.CompS / row.TotalS
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Grid != out[j].Grid {
			return out[i].Grid < out[j].Grid
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// CollectiveRow is one communication op's modeled seconds, rebuilt from
// the dist.modeled.<op>_seconds counter.
type CollectiveRow struct {
	Op             string  `json:"op"`
	ModeledSeconds float64 `json:"modeled_s"`
}

// Collectives returns the per-op modeled communication rows for every op
// the run metered, in op order. Empty when the run drove no dist grid.
func (t *Trace) Collectives() []CollectiveRow {
	var out []CollectiveRow
	for op := dist.Op(0); op < dist.NumOps; op++ {
		name := op.String()
		if s := t.Metrics["dist.modeled."+name+"_seconds"]; s != 0 {
			out = append(out, CollectiveRow{Op: name, ModeledSeconds: s})
		}
	}
	return out
}

// FormatUS renders a microsecond quantity with an adaptive unit.
func FormatUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.3fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.3fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fus", us)
	}
}
