// Machine-readable report: the same aggregations the koala-obs text
// report prints — phases, top spans, critical path, rank utilization,
// final counters — as one stable JSON document, so dashboards and CI
// scripts can consume a trace without scraping the aligned tables.
package obsfile

// ReportDoc is the JSON form of a full trace report. Field names are
// part of the CLI contract (koala-obs report -json); extend, don't
// rename.
type ReportDoc struct {
	Spans  int        `json:"spans"`
	Roots  int        `json:"roots"`
	WallUS float64    `json:"wall_us"`
	Phases []PhaseDoc `json:"phases,omitempty"`
	// Top maps ranking name (inclusive, exclusive, flops) to the top-k
	// spans under that order.
	Top          map[string][]SpanDoc `json:"top_spans,omitempty"`
	CriticalPath *CriticalPathDoc     `json:"critical_path,omitempty"`
	Ranks        []RankRow            `json:"ranks,omitempty"`
	// Collectives is the per-collective modeled communication table.
	Collectives []CollectiveRow    `json:"collectives,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// PhaseDoc is one per-phase aggregate row.
type PhaseDoc struct {
	Name    string             `json:"name"`
	Count   int64              `json:"count"`
	TotalUS float64            `json:"total_us"`
	SelfUS  float64            `json:"self_us"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// SpanDoc is one individual span in a ranking or on the critical path.
type SpanDoc struct {
	Name     string                 `json:"name"`
	ID       int64                  `json:"id"`
	Depth    int                    `json:"depth"`
	OffsetUS float64                `json:"offset_us"`
	DurUS    float64                `json:"dur_us"`
	SelfUS   float64                `json:"self_us"`
	Attrs    map[string]interface{} `json:"attrs,omitempty"`
	// SlackUS is set only on critical-path steps: how much longer the
	// step could have run before delaying its container.
	SlackUS *float64 `json:"slack_us,omitempty"`
}

// CriticalPathDoc is the longest exclusive-time chain through the span
// tree, in execution order.
type CriticalPathDoc struct {
	TotalUS float64   `json:"total_us"`
	Steps   []SpanDoc `json:"steps"`
}

func spanDoc(s *Span) SpanDoc {
	return SpanDoc{
		Name:     s.Name,
		ID:       s.ID,
		Depth:    s.Depth,
		OffsetUS: s.OffsetUS,
		DurUS:    s.DurUS,
		SelfUS:   s.SelfUS(),
		Attrs:    s.Attrs,
	}
}

// BuildReport assembles the ReportDoc for a trace with top-k span
// rankings, mirroring the text report's content exactly (the flops
// ranking drops spans without a positive flops attribute, as the text
// report does).
func BuildReport(t *Trace, topK int) *ReportDoc {
	doc := &ReportDoc{
		Spans:   len(t.Spans),
		Roots:   len(t.Roots),
		WallUS:  t.WallUS(),
		Metrics: t.Metrics,
	}
	for _, p := range t.Phases() {
		attrs := p.Attrs
		if len(attrs) == 0 {
			attrs = nil
		}
		doc.Phases = append(doc.Phases, PhaseDoc{
			Name: p.Name, Count: p.Count, TotalUS: p.TotalUS, SelfUS: p.SelfUS, Attrs: attrs,
		})
	}
	for _, by := range []string{ByInclusive, ByExclusive, ByFlops} {
		spans := t.TopSpans(topK, by)
		if by == ByFlops {
			n := 0
			for _, s := range spans {
				if v, ok := s.AttrFloat("flops"); ok && v > 0 {
					spans[n] = s
					n++
				}
			}
			spans = spans[:n]
		}
		if len(spans) == 0 {
			continue
		}
		if doc.Top == nil {
			doc.Top = map[string][]SpanDoc{}
		}
		for _, s := range spans {
			doc.Top[by] = append(doc.Top[by], spanDoc(s))
		}
	}
	if steps, total := t.CriticalPath(); len(steps) > 0 {
		cp := &CriticalPathDoc{TotalUS: total}
		for _, st := range steps {
			d := spanDoc(st.Span)
			slack := st.SlackUS
			d.SlackUS = &slack
			cp.Steps = append(cp.Steps, d)
		}
		doc.CriticalPath = cp
	}
	doc.Ranks = t.RankTable()
	doc.Collectives = t.Collectives()
	return doc
}
