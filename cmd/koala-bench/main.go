// Command koala-bench regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md section 4 for the experiment index).
//
// Usage:
//
//	koala-bench [-full] [-workers n] [-kernel auto|asm|go] [-f32-sketch] [-trace file] [-metrics file] [-json dir] [-compare dir] <experiment>...
//	koala-bench all
//
// Kernel tuning: -kernel forces the compute-kernel dispatch (default:
// CPU detection, overridable with KOALA_KERNEL), and -f32-sketch runs
// the randomized-SVD sketch stage in complex64. Both are recorded in
// the BENCH json "kernel" fields; neither is gated by -compare.
//
// Transport: -transport unix|tcp with -ranks n launches n real rank
// processes behind the dist grids of the suites whose simulated rank
// count matches (-ranks also overrides fig7a/b and fig8a/b's default).
// Modeled stats are bit-identical to -transport inproc; the run
// additionally records measured wall clock per collective
// (dist.measured.* counters, shown by koala-obs report).
//
// -rank-trace dir captures one JSONL trace log per rank process into
// dir (rank0.jsonl = driver) plus a manifest.json with the NTP-style
// clock-offset estimates; merge into one skew-corrected multi-rank
// trace with `koala-obs merge dir`. With -json, per-rank measured comm
// stats land in the BENCH json "ranks" array.
//
// Experiments: table2 fig7a fig7b fig8a fig8b fig9 fig10 fig11 fig12
// fig13a fig13b fig14 ablation sym. The -full flag selects larger sweeps closer to the
// paper's parameters (minutes to hours on one core); the default sizes
// finish quickly and preserve the swept shapes.
//
// Observability (see DESIGN.md "Observability"):
//
//	-trace f     write a Chrome trace_event file (chrome://tracing, Perfetto)
//	-metrics f   write a JSON-lines span/metrics log
//	-json dir    write one BENCH_<suite>.json per experiment
//	-compare dir gate deterministic metrics against the BENCH_<suite>.json
//	             baselines in dir (see internal/bench/compare.go for the
//	             tolerances); exits nonzero on regression. Wall-clock is
//	             reported but never gated.
//
// Any of the three enables span collection and appends a per-phase time
// breakdown after each experiment's table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"gokoala/internal/bench"
	"gokoala/internal/cliutil"
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

func main() {
	cliutil.MaybeRankMode()
	full := flag.Bool("full", false, "run the larger parameter sweeps")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file")
	metricsFile := flag.String("metrics", "", "write a JSON-lines span/metrics log")
	jsonDir := flag.String("json", "", "write BENCH_<suite>.json files into this directory")
	compareDir := flag.String("compare", "", "gate each suite's deterministic metrics against the BENCH_<suite>.json baselines in this directory; exit nonzero on regression")
	workers := cliutil.WorkersFlag()
	scaling := flag.Bool("scaling", true, "with -json, rerun each suite at worker counts 1,2,4,... and record the scaling curve")
	listen := cliutil.ListenFlag()
	kernel := cliutil.KernelFlag()
	f32Sketch := cliutil.F32SketchFlag()
	transport := cliutil.TransportFlag()
	ranks := cliutil.RanksFlag()
	rankTrace := cliutil.RankTraceFlag()
	flag.Parse()
	cliutil.ApplyWorkers(*workers)
	if err := cliutil.ApplyKernel(*kernel); err != nil {
		fatal(err)
	}
	bench.SetSketch32(*f32Sketch)
	if *transport != "inproc" && *ranks <= 0 {
		fatal(fmt.Errorf("-transport %s requires -ranks > 0", *transport))
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table2", "fig7a", "fig7b", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig14", "ablation", "sym"}
	}

	if *traceFile != "" && *traceFile == *metricsFile {
		fatal(fmt.Errorf("-trace and -metrics must name different files"))
	}
	if *jsonDir != "" {
		// Fail before running minutes of experiments, not at write time.
		if fi, err := os.Stat(*jsonDir); err != nil {
			fatal(err)
		} else if !fi.IsDir() {
			fatal(fmt.Errorf("-json %s: not a directory", *jsonDir))
		}
	}

	observing := *traceFile != "" || *metricsFile != "" || *jsonDir != "" || *compareDir != "" || *rankTrace != ""
	var closers []io.Closer
	if observing {
		var sinks []obs.Sink
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			closers = append(closers, f)
			sinks = append(sinks, obs.NewChromeTraceSink(f))
		}
		if *metricsFile != "" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fatal(err)
			}
			closers = append(closers, f)
			sinks = append(sinks, obs.NewJSONLSink(f))
		}
		// The per-suite phase breakdown below is a sink like the files.
		obs.Enable(append(sinks, obs.PhaseSummary())...)
		if *rankTrace != "" {
			rc, err := cliutil.EnableRankTrace(*rankTrace)
			if err != nil {
				fatal(err)
			}
			closers = append(closers, rc)
		}
	}
	// The transport opens after obs so its collective spans (and the
	// clock-sync manifest under -rank-trace) are captured from the start.
	tr, err := cliutil.OpenTransport(*transport, *ranks, *rankTrace)
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		bench.SetTransport(tr)
		defer tr.Close()
	}
	tel, err := cliutil.StartTelemetry(*listen, "bench", map[string]string{"suites": strings.Join(args, ",")})
	if err != nil {
		fatal(err)
	}
	defer tel.Close()
	cliutil.HandleSignals(false, func() {
		_ = obs.Flush()
		_ = tel.Close()
		for _, c := range closers {
			_ = c.Close()
		}
	})

	w := os.Stdout
	regressions := 0
	for i, name := range args {
		if i > 0 {
			fmt.Fprintf(w, "\n%s\n\n", divider)
		}
		params, run := suite(name, *full, *ranks)
		if run == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		if observing {
			obs.ResetCounters()
			obs.ResetSummary()
			dist.ResetTimelines()
			// Fresh per-suite plan cache statistics (the few recompiles
			// this forces are noise next to a suite's contraction count).
			einsum.ResetPlanCache()
		}
		res := bench.SuiteResult{Suite: name, Params: params}
		res.Flops = flopsOf(func() {
			res.WallSeconds = timeIt(func() { run(w) })
		})
		if observing {
			// Emit per-rank model timelines of every grid this suite drove
			// into the trace sinks before the summary snapshot.
			dist.FlushTimelines()
			bench.CollectSuiteMetrics(&res)
			fmt.Fprintf(w, "\n-- %s phase breakdown --\n", name)
			obs.WriteSummary(w)
			obs.WriteMetrics(w)
		}
		if *compareDir != "" {
			base, err := bench.ReadBenchJSON(*compareDir, name)
			if err != nil {
				fatal(err)
			}
			viols := bench.CompareSuite(base, res)
			if len(viols) == 0 {
				fmt.Fprintf(w, "\ncompare %s: PASS (wall %.2fs vs baseline %.2fs; wall is not gated)\n",
					name, res.WallSeconds, base.WallSeconds)
			} else {
				fmt.Fprintf(w, "\ncompare %s: FAIL\n", name)
				for _, v := range viols {
					fmt.Fprintf(w, "  %s\n", v)
				}
				regressions += len(viols)
			}
		}
		if *jsonDir != "" {
			if *scaling {
				res.Scaling = scalingCurve(run)
				for _, pt := range res.Scaling {
					if pt.Workers == res.Workers {
						res.SpeedupVs1 = pt.SpeedupVs1
					}
				}
				if res.SpeedupVs1 == 0 && len(res.Scaling) > 0 && res.WallSeconds > 0 {
					res.SpeedupVs1 = res.Scaling[0].WallSeconds / res.WallSeconds
				}
			}
			path, err := bench.WriteBenchJSON(*jsonDir, res)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "\nwrote %s\n", path)
		}
	}
	if observing {
		if err := obs.Disable(); err != nil {
			fatal(err)
		}
		for _, c := range closers {
			if err := c.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "koala-bench: %d metric regression(s) against %s\n", regressions, *compareDir)
		os.Exit(1)
	}
}

// suite maps an experiment name to its configuration (recorded in the
// BENCH_<suite>.json Params field) and a runner. A nil runner means the
// name is unknown. ranks > 0 overrides the simulated rank count of the
// suites that have one (fig7a/b, fig8a/b) — the way -transport runs
// match the grid size to the real process count.
func suite(name string, full bool, ranks int) (interface{}, func(io.Writer)) {
	switch name {
	case "table2":
		cfg := bench.DefaultTable2Config()
		if full {
			cfg.N = 6
			cfg.Bonds = []int{2, 3, 4, 5}
			cfg.Ms = []int{4, 8, 16, 32, 64}
		}
		return cfg, func(w io.Writer) { bench.ExperimentTable2(w, cfg) }
	case "fig7a":
		cfg := bench.DefaultFig7aConfig()
		if full {
			cfg.N = 8
			cfg.Bonds = []int{2, 4, 8, 12, 16}
		}
		if ranks > 0 {
			cfg.Ranks = ranks
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig7(w, cfg, true) }
	case "fig7b":
		cfg := bench.DefaultFig7bConfig()
		if full {
			cfg.N = 10
			cfg.Bonds = []int{2, 4, 8, 12}
		}
		if ranks > 0 {
			cfg.Ranks = ranks
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig7(w, cfg, false) }
	case "fig8a":
		cfg := bench.DefaultFig8aConfig()
		if full {
			cfg.N = 8
			cfg.Bonds = []int{2, 4, 8, 16}
			cfg.ExactMax = 6
		}
		if ranks > 0 {
			cfg.Ranks = ranks
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig8(w, cfg, true) }
	case "fig8b":
		cfg := bench.DefaultFig8bConfig()
		if full {
			cfg.N = 10
			cfg.Bonds = []int{2, 4, 8, 16}
		}
		if ranks > 0 {
			cfg.Ranks = ranks
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig8(w, cfg, false) }
	case "fig9":
		cfg := bench.DefaultFig9Config()
		if full {
			cfg.Sides = []int{2, 3, 4, 5, 6, 7, 8}
			cfg.Bond = 3
			cfg.M = 9
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig9(w, cfg) }
	case "fig10":
		cfg := bench.DefaultFig10Config()
		if full {
			cfg.Sides = []int{4, 5, 6}
			cfg.Layers = 6
			cfg.Ms = []int{1, 2, 4, 8, 16, 32, 64}
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig10(w, cfg) }
	case "fig11":
		cfg := bench.DefaultFig11Config()
		if full {
			cfg.N = 8
			cfg.SmallBond = 6
			cfg.LargeBond = 10
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig11(w, cfg) }
	case "fig12":
		cfg := bench.DefaultFig12Config()
		if full {
			cfg.BaseBond = 6
			cfg.BaseM = 8
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig12(w, cfg) }
	case "fig13a":
		cfg := bench.DefaultFig13Config()
		if full {
			cfg.Steps = 150
			cfg.Bonds = []int{1, 2, 3, 4}
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig13a(w, cfg) }
	case "fig13b":
		cfg := bench.DefaultFig13Config()
		if full {
			cfg.Steps = 150
			cfg.Bonds = []int{1, 2, 3, 4, 5, 6}
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig13b(w, cfg) }
	case "fig14":
		cfg := bench.DefaultFig14Config()
		if full {
			cfg.Bonds = []int{1, 2, 3, 4}
			cfg.MaxIter = 200
		}
		return cfg, func(w io.Writer) { bench.ExperimentFig14(w, cfg) }
	case "sym":
		cfg := bench.DefaultSymConfig()
		if full {
			cfg.Rows, cfg.Cols = 3, 3
			cfg.Steps = 12
		}
		return cfg, func(w io.Writer) { bench.ExperimentSym(w, cfg) }
	case "ablation":
		cfg := bench.AblationConfig{Seed: 11}
		return cfg, func(w io.Writer) {
			bench.ExperimentAblationRSVD(w, cfg)
			fmt.Fprintf(w, "\n%s\n\n", divider)
			bench.ExperimentAblationUpdate(w, cfg)
			fmt.Fprintf(w, "\n%s\n\n", divider)
			bench.ExperimentAblationCanonical(w, cfg)
			fmt.Fprintf(w, "\n%s\n\n", divider)
			bench.ExperimentAblationWeighted(w, cfg)
		}
	}
	return nil, nil
}

// scalingCurve reruns a suite against a discard writer at worker counts
// 1, 2, 4, ... up to the machine's CPU count, recording wall seconds and
// speedup over the single-worker rerun. Results are bit-identical across
// the sweep (the lattice scheduler's determinism contract), so only the
// timing varies. The pool is restored to its entry size afterwards.
func scalingCurve(run func(io.Writer)) []bench.ScalingPoint {
	entry := pool.Size()
	defer pool.SetWorkers(entry)
	// Sweep at least to 4 workers even on smaller machines: past NumCPU
	// the curve documents oversubscription overhead instead of speedup.
	limit := runtime.NumCPU()
	if limit < 4 {
		limit = 4
	}
	var pts []bench.ScalingPoint
	for w := 1; w <= limit; w *= 2 {
		pool.SetWorkers(w)
		secs := timeIt(func() { run(io.Discard) })
		pts = append(pts, bench.ScalingPoint{Workers: w, WallSeconds: secs})
	}
	if len(pts) > 0 && pts[0].WallSeconds > 0 {
		for i := range pts {
			pts[i].SpeedupVs1 = pts[0].WallSeconds / pts[i].WallSeconds
		}
	}
	return pts
}

// timeIt and flopsOf mirror the internal/bench helpers for whole-suite
// measurement.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

func flopsOf(f func()) int64 {
	before := tensor.FlopCount()
	f()
	return tensor.FlopCount() - before
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "koala-bench:", err)
	os.Exit(1)
}

const divider = "================================================================"

func usage() {
	fmt.Fprintln(os.Stderr, `usage: koala-bench [-full] [-kernel auto|asm|go] [-f32-sketch] [-transport inproc|unix|tcp] [-ranks n] [-rank-trace dir] [-trace file] [-metrics file] [-json dir] [-compare dir] <experiment>...
experiments: table2 fig7a fig7b fig8a fig8b fig9 fig10 fig11 fig12 fig13a fig13b fig14 ablation sym | all`)
}
