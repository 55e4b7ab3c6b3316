// Prometheus text exposition (version 0.0.4): the /metrics renderer and
// a strict line parser. The parser is the validity oracle — unit tests,
// `koala-obs watch`, and the telemetry-smoke CI gate all feed scraped
// output back through ParseMetrics and fail on anything malformed, so
// the renderer cannot drift from the format it claims.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gokoala/internal/obs"
)

// MetricPrefix namespaces every exposed metric.
const MetricPrefix = "koala_"

// PromName rewrites a dotted internal metric name ("einsum.plan.hits")
// to its exposed Prometheus name (koala_einsum_plan_hits).
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(MetricPrefix) + len(name))
	b.WriteString(MetricPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func labelString(labels []obs.Label, extra ...obs.Label) string {
	all := append(append([]obs.Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteMetrics renders the full exposition: run info, process stats, and
// one snapshot of the obs registry — every series (last value as a gauge
// plus _sum/_count aggregates), histogram (cumulative le buckets) and
// registered counter, zero or not, so the health.* families are present
// before anything went wrong — then the ratios derived from it. Every
// metric lives in that one registry under one name, so each family is
// written exactly once.
func WriteMetrics(w io.Writer) {
	gauge := func(name string, v float64) {
		fmt.Fprintf(w, "# TYPE %s%s gauge\n%s%s %s\n", MetricPrefix, name, MetricPrefix, name, formatValue(v))
	}
	component, labels, start := RunInfo()
	if component != "" {
		ls := []obs.Label{{Key: "component", Value: component}}
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ls = append(ls, obs.Label{Key: k, Value: labels[k]})
		}
		fmt.Fprintf(w, "# TYPE %srun_info gauge\n%srun_info%s 1\n", MetricPrefix, MetricPrefix, labelString(ls))
	}
	if !start.IsZero() {
		gauge("process_uptime_seconds", time.Since(start).Seconds())
	}
	gauge("go_goroutines", float64(runtime.NumGoroutine()))

	// Snapshot lists are sorted by name, so the samples of one family are
	// adjacent and its TYPE line goes before the first of them.
	family := ""
	typeLine := func(name, kind string) {
		if name != family {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
			family = name
		}
	}
	counters, series, hists := obs.Snapshot()
	for _, s := range series {
		name := PromName(s.Name)
		typeLine(name, "gauge")
		ls := labelString(s.Labels)
		fmt.Fprintf(w, "%s%s %s\n", name, ls, formatValue(s.Last))
		fmt.Fprintf(w, "%s_sum%s %s\n", name, ls, formatValue(s.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", name, ls, s.Count)
	}
	for _, h := range hists {
		name := PromName(h.Name)
		typeLine(name, "histogram")
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(h.Labels, obs.Label{Key: "le", Value: formatValue(b)}), cum)
		}
		cum += h.Buckets[len(h.Bounds)]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(h.Labels, obs.Label{Key: "le", Value: "+Inf"}), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(h.Labels), formatValue(h.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(h.Labels), h.Count)
	}
	byName := map[string]float64{}
	for _, m := range counters {
		byName[m.Name] = m.Value
		kind := "counter"
		if m.Kind == "gauge" {
			kind = "gauge"
		}
		typeLine(PromName(m.Name), kind)
		fmt.Fprintf(w, "%s %s\n", PromName(m.Name), formatValue(m.Value))
	}

	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := byName["einsum.plan.hits"], byName["einsum.plan.misses"]
	gauge("einsum_plan_hit_ratio", ratio(hits, hits+misses))
	// Block-sparse savings: the fraction of dense-equivalent GEMM flops the
	// symmetric contractions avoided (0 when none ran).
	symFlops, symDense := byName["einsum.sym.flops"], byName["einsum.sym.dense_equiv_flops"]
	gauge("einsum_flops_saved_ratio", ratio(symDense-symFlops, symDense))
}

// --- parser / validator ---

// Sample is one parsed exposition sample.
type Sample struct {
	// Name is the metric name without labels.
	Name string
	// Labels is the raw label block as written ("" or "{k=\"v\",...}").
	Labels string
	Value  float64
}

// Key is the map key form: name plus raw label block.
func (s Sample) Key() string { return s.Name + s.Labels }

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if i > 0 {
			ok = ok || (c >= '0' && c <= '9')
		}
		if !ok {
			return false
		}
	}
	return true
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// ParseMetrics strictly parses Prometheus text exposition, returning
// samples keyed by name+labels. It rejects malformed metric names, label
// syntax, values, TYPE lines, samples of a family appearing before its
// TYPE line, and duplicate samples — the failure modes a drifting
// renderer would produce.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	typed := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineno, line)
				}
				if !validName(fields[2]) {
					return nil, fmt.Errorf("line %d: invalid metric name %q in TYPE line", lineno, fields[2])
				}
				if !validTypes[fields[3]] {
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineno, fields[3])
				}
				if _, dup := typed[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE line for %q", lineno, fields[2])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineno, err)
		}
		// A typed family must declare itself before its first sample.
		// _bucket/_sum/_count samples belong to the family they suffix
		// (histograms, and the _sum/_count aggregates of gauge series).
		base := s.Name
		if _, ok := typed[base]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if trimmed := strings.TrimSuffix(s.Name, suf); trimmed != s.Name {
					if _, ok := typed[trimmed]; ok {
						base = trimmed
						break
					}
				}
			}
		}
		if _, ok := typed[base]; !ok {
			return nil, fmt.Errorf("line %d: sample %q before its TYPE line", lineno, s.Name)
		}
		if _, dup := out[s.Key()]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", lineno, s.Key())
		}
		out[s.Key()] = s.Value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSample parses `name[{labels}] value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	// Name runs to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:end]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := parseLabelBlock(rest)
		if close < 0 {
			return s, fmt.Errorf("malformed label block in %q", line)
		}
		s.Labels = rest[:close+1]
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabelBlock validates a `{k="v",...}` block starting at s[0]=='{'
// and returns the index of its closing brace, or -1 when malformed.
func parseLabelBlock(s string) int {
	i := 1
	for {
		if i < len(s) && s[i] == '}' {
			return i
		}
		// label name
		start := i
		for i < len(s) && (s[i] == '_' || (s[i] >= 'a' && s[i] <= 'z') || (s[i] >= 'A' && s[i] <= 'Z') || (i > start && s[i] >= '0' && s[i] <= '9')) {
			i++
		}
		if i == start || i >= len(s) || s[i] != '=' {
			return -1
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return -1
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return -1
		}
		i++ // closing quote
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return i
		}
		return -1
	}
}
