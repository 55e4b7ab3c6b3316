// Command koala-obs analyzes the JSON-lines trace logs the koala tools
// write with -metrics (see DESIGN.md "Observability"): where the time
// went, what the critical path through the task DAG was, and how the
// modeled machine's ranks spent their timelines.
//
// Usage:
//
//	koala-obs report [-top k] [-json] trace.jsonl
//	koala-obs diff a.jsonl b.jsonl
//	koala-obs watch [-interval d] [-once] [-json] [-events n] host:port
//
// report prints the per-phase summary, the top-k spans by inclusive
// time, exclusive time, and flops, the critical path with per-step
// slack, and the per-rank utilization table of every modeled grid.
// -json emits the same content as one machine-readable document.
//
// diff compares only the deterministic fields of two logs — machine
// model totals, operation counts, health counters, rank timelines —
// and exits nonzero when they disagree. Two runs of the same
// experiment at different worker counts must diff clean; wall times
// and scheduling artifacts are excluded by construction.
//
// watch attaches to the live telemetry plane a run exposes with
// -listen, validating /metrics on every poll and following the /events
// step stream. See DESIGN.md "Live telemetry plane".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gokoala/internal/obsfile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "report":
		fs := flag.NewFlagSet("report", flag.ExitOnError)
		top := fs.Int("top", 10, "rows per top-span ranking")
		jsonOut := fs.Bool("json", false, "emit the report as JSON")
		outFile := fs.String("o", "", "write the report to this file instead of stdout")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			usage()
			os.Exit(2)
		}
		t, err := obsfile.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		w, done := output(*outFile)
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(obsfile.BuildReport(t, *top)); err != nil {
				fatal(err)
			}
			done()
			return
		}
		report(w, t, *top)
		done()
	case "watch":
		os.Exit(runWatch(os.Args[2:]))
	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		outFile := fs.String("o", "", "write the diff listing to this file instead of stdout")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			usage()
			os.Exit(2)
		}
		a, err := obsfile.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := obsfile.ReadFile(fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		w, done := output(*outFile)
		diffs, checked := obsfile.Diff(a, b)
		if len(diffs) == 0 {
			fmt.Fprintf(w, "traces agree on all %d deterministic fields\n", checked)
			done()
			return
		}
		for _, d := range diffs {
			fmt.Fprintln(w, d)
		}
		fmt.Fprintf(w, "%d of %d deterministic fields differ\n", len(diffs), checked)
		done()
		os.Exit(1)
	default:
		usage()
		os.Exit(2)
	}
}

// output resolves the -o flag: stdout when empty, else the named file.
// The returned func closes the file (fatal on error, so a full disk
// isn't a silent truncation).
func output(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func report(w io.Writer, t *obsfile.Trace, top int) {
	fmt.Fprintf(w, "spans: %d   roots: %d   traced wall: %s\n",
		len(t.Spans), len(t.Roots), obsfile.FormatUS(t.WallUS()))
	if t.Truncated {
		fmt.Fprintln(w, "note: log was cut mid-record (writer killed mid-run); trailing data dropped")
	}

	phases := t.Phases()
	if len(phases) > 0 {
		fmt.Fprintf(w, "\n-- phases --\n")
		rows := [][]string{{"phase", "count", "total", "self"}}
		for _, p := range phases {
			rows = append(rows, []string{
				p.Name, fmt.Sprintf("%d", p.Count),
				obsfile.FormatUS(p.TotalUS), obsfile.FormatUS(p.SelfUS),
			})
		}
		writeTable(w, rows)
	}

	for _, ranking := range []struct{ by, title string }{
		{obsfile.ByInclusive, "top spans by inclusive time"},
		{obsfile.ByExclusive, "top spans by exclusive time"},
		{obsfile.ByFlops, "top spans by flops"},
	} {
		spans := t.TopSpans(top, ranking.by)
		if ranking.by == obsfile.ByFlops {
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
		fmt.Fprintf(w, "\n-- %s --\n", ranking.title)
		rows := [][]string{{"span", "id", "incl", "excl", "flops", "attrs"}}
		for _, s := range spans {
			flops := "-"
			if v, ok := s.AttrFloat("flops"); ok {
				flops = fmt.Sprintf("%.0f", v)
			}
			rows = append(rows, []string{
				s.Name, fmt.Sprintf("%d", s.ID),
				obsfile.FormatUS(s.DurUS), obsfile.FormatUS(s.SelfUS()),
				flops, attrNote(s),
			})
		}
		writeTable(w, rows)
	}

	steps, total := t.CriticalPath()
	if len(steps) > 0 {
		fmt.Fprintf(w, "\n-- critical path: %s over %d steps (traced wall %s) --\n",
			obsfile.FormatUS(total), len(steps), obsfile.FormatUS(t.WallUS()))
		rows := [][]string{{"span", "self", "end", "slack"}}
		const maxSteps = 40
		for i, st := range steps {
			if i == maxSteps {
				rows = append(rows, []string{fmt.Sprintf("... %d more steps", len(steps)-maxSteps), "", "", ""})
				break
			}
			indent := strings.Repeat(" ", st.Span.Depth)
			rows = append(rows, []string{
				indent + st.Span.Name,
				obsfile.FormatUS(st.Span.SelfUS()),
				obsfile.FormatUS(st.Span.EndUS()),
				obsfile.FormatUS(st.SlackUS),
			})
		}
		writeTable(w, rows)
	}

	ranks := t.RankTable()
	if len(ranks) > 0 {
		grids := map[string]bool{}
		for _, r := range ranks {
			grids[r.Grid] = true
		}
		names := make([]string, 0, len(grids))
		for g := range grids {
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			fmt.Fprintf(w, "\n-- modeled ranks: %s --\n", g)
			rows := [][]string{{"rank", "compute_s", "latency_s", "bandwidth_s", "wait_s", "total_s", "util%"}}
			var tot obsfile.RankRow
			n := 0
			for _, r := range ranks {
				if r.Grid != g {
					continue
				}
				rows = append(rows, []string{
					fmt.Sprintf("%d", r.Rank),
					fmt.Sprintf("%.6f", r.CompS), fmt.Sprintf("%.6f", r.LatS),
					fmt.Sprintf("%.6f", r.BWS), fmt.Sprintf("%.6f", r.WaitS),
					fmt.Sprintf("%.6f", r.TotalS), fmt.Sprintf("%.1f", r.UtilPct),
				})
				tot.CompS += r.CompS
				tot.LatS += r.LatS
				tot.BWS += r.BWS
				tot.WaitS += r.WaitS
				tot.TotalS += r.TotalS
				n++
			}
			if n > 1 {
				util := 0.0
				if tot.TotalS > 0 {
					util = 100 * tot.CompS / tot.TotalS
				}
				rows = append(rows, []string{
					"all",
					fmt.Sprintf("%.6f", tot.CompS), fmt.Sprintf("%.6f", tot.LatS),
					fmt.Sprintf("%.6f", tot.BWS), fmt.Sprintf("%.6f", tot.WaitS),
					fmt.Sprintf("%.6f", tot.TotalS), fmt.Sprintf("%.1f", util),
				})
			}
			writeTable(w, rows)
		}
	}

	if colls := t.Collectives(); len(colls) > 0 {
		fmt.Fprintf(w, "\n-- collectives: modeled comm seconds --\n")
		rows := [][]string{{"op", "modeled_s"}}
		for _, c := range colls {
			rows = append(rows, []string{c.Op, fmt.Sprintf("%.6f", c.ModeledSeconds)})
		}
		writeTable(w, rows)
	}

	if len(t.Metrics) > 0 {
		fmt.Fprintf(w, "\n-- final counters --\n")
		names := make([]string, 0, len(t.Metrics))
		for n := range t.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		rows := [][]string{{"counter", "value", "deterministic"}}
		for _, n := range names {
			det := ""
			if obsfile.DeterministicMetric(n) {
				det = "yes"
			}
			rows = append(rows, []string{n, fmt.Sprintf("%g", t.Metrics[n]), det})
		}
		writeTable(w, rows)
	}
}

// attrNote renders a span's most informative non-flops attributes.
func attrNote(s *obsfile.Span) string {
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		if k == "flops" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const maxAttrs = 3
	if len(keys) > maxAttrs {
		keys = keys[:maxAttrs]
	}
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, s.Attrs[k]))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// writeTable prints rows[0] as a header with aligned columns.
func writeTable(w io.Writer, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, r := range rows {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		if ri == 0 {
			seps := make([]string, len(r))
			for i := range seps {
				seps[i] = strings.Repeat("-", widths[i])
			}
			fmt.Fprintln(w, strings.Join(seps, "  "))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "koala-obs:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: koala-obs <command> [flags] [args]

commands:
  report [-top k] [-json] [-o file] trace.jsonl
      Analyze a -metrics/-trace JSON-lines log: per-phase summary,
      top-k spans (inclusive, exclusive, flops), critical path with
      slack, modeled per-rank utilization, per-collective modeled
      communication time, final counters.
      -json emits the same report as one machine-readable document;
      -o writes it to a file instead of stdout.

  diff [-o file] a.jsonl b.jsonl
      Compare the deterministic fields of two logs; exit 1 when they
      disagree, 0 when every field matches.

  watch [-interval d] [-once] [-json] [-events n] host:port
      Attach to a running command's -listen telemetry plane. Polls
      /metrics (validated Prometheus text) and /healthz, follows the
      /events SSE stream, and redraws a live progress/convergence
      view. -once takes a single validated snapshot and exits
      (nonzero when unreachable or the exposition is malformed);
      -json emits snapshots as JSON.

exit codes: 0 ok, 1 analysis failure/mismatch, 2 bad usage`)
}
