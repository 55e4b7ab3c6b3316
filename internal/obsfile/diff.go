package obsfile

import (
	"fmt"
	"sort"
	"strings"
)

// DeterministicMetric reports whether a counter is part of the
// determinism contract: bit-identical for a given experiment across
// worker counts, schedules, and machines. Deterministic counters come
// from the machine model and the algorithmic operation counts
// (picosecond-integer dist accounting, GEMM/move tallies, health
// counters, the per-task submission count). Everything else — wall
// times, queue waits, inline-vs-worker split, plan-cache hit counts
// under concurrent compilation, scratch memory peaks — depends on
// scheduling and is reported but never diffed or gated.
func DeterministicMetric(name string) bool {
	deterministic := []string{
		"dist.",
		"einsum.gemm.",
		"einsum.move.",
		"einsum.contractions",
		"health.",
		"pool.task.count",
	}
	for _, p := range deterministic {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// DiffLine is one deterministic field that differs between two traces.
type DiffLine struct {
	Field string
	A, B  float64
	InA   bool
	InB   bool
}

func (d DiffLine) String() string {
	switch {
	case !d.InA:
		return fmt.Sprintf("%s: (absent) -> %g", d.Field, d.B)
	case !d.InB:
		return fmt.Sprintf("%s: %g -> (absent)", d.Field, d.A)
	default:
		return fmt.Sprintf("%s: %g -> %g (%+g)", d.Field, d.A, d.B, d.B-d.A)
	}
}

// Diff compares the deterministic fields of two traces — the counter
// snapshot filtered by DeterministicMetric plus the per-rank timeline
// totals — and returns the differing fields sorted by name. An empty
// result means the traces agree on every deterministic field (the
// expected outcome for the same experiment at different worker counts).
// Checked is the number of fields compared.
func Diff(a, b *Trace) (diffs []DiffLine, checked int) {
	fa, fb := a.deterministicFields(), b.deterministicFields()
	names := map[string]bool{}
	for n := range fa {
		names[n] = true
	}
	for n := range fb {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		va, inA := fa[n]
		vb, inB := fb[n]
		checked++
		if inA != inB || va != vb {
			diffs = append(diffs, DiffLine{Field: n, A: va, B: vb, InA: inA, InB: inB})
		}
	}
	return diffs, checked
}

// deterministicFields flattens a trace's gate-stable values: filtered
// metrics and rank timeline totals keyed rank[grid/N].<part>.
func (t *Trace) deterministicFields() map[string]float64 {
	out := map[string]float64{}
	for name, v := range t.Metrics {
		if DeterministicMetric(name) {
			out[name] = v
		}
	}
	for _, row := range t.RankTable() {
		prefix := fmt.Sprintf("rank[%s/%d].", row.Grid, row.Rank)
		out[prefix+"comp_s"] = row.CompS
		out[prefix+"lat_s"] = row.LatS
		out[prefix+"bw_s"] = row.BWS
		out[prefix+"wait_s"] = row.WaitS
	}
	return out
}
