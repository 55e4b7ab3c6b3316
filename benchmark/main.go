// Command benchmark is the repository's wall-clock benchmark: five
// physical-state workloads driven through public entry points by one
// client goroutine in a closed loop, every operation timed and checked.
//
//	go run . -workload norm_ibmps -seed 3 -seconds 20 -trace 0   # end-to-end metrics
//	go run . -workload norm_ibmps -seed 3 -seconds 20 -trace 1   # per-layer metrics + trace file
//	go run .                                                     # all workloads, both runs, a process each
//	go run . -aa                                                 # two sets of runs, compared against the bounds
//
// With -workload and -trace 0|1 the last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// bound is how far an end-to-end metric may worsen, as a share of the
// baseline, before a change counts as a regression. BENCHMARK.json at the
// repository root carries the same numbers; workloads_test.go keeps the
// two in step.
type bound struct {
	name   string
	unit   string
	higher bool // higher is better
	share  float64
}

var endToEnd = []bound{
	{"setup_s", "s", false, 0.25},
	{"op_median_ms", "ms", false, 0.10},
	{"op_p90_ms", "ms", false, 0.15},
	{"ops_per_s", "1/s", true, 0.10},
	{"alloc_mb_per_op", "MB", false, 0.10},
	{"accuracy_digits", "digits", true, 0.15},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all of them, each in a process of its own")
		seed    = flag.Int64("seed", 1, "seed of every generated input and of the per-operation sketches (seed + op index)")
		seconds = flag.Float64("seconds", 20, "length of the timed loop; it also runs until 100 operations are done")
		trace   = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics and trace file; both")
		aa      = flag.Bool("aa", false, "run every workload twice, in opposite orders, and compare the two sets against the bounds")
		outDir  = flag.String("out", "out", "directory for trace-<workload>.jsonl")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	self := child{seed: *seed, seconds: *seconds, outDir: *outDir}

	switch {
	case *aa:
		ok, err := runAA(selected, self)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "" || *trace == "both":
		// One process per workload and run, as the driver of BENCHMARK.json
		// does it: the time of an operation follows the state of the heap,
		// so a workload measured after another in one process reads up to
		// 5% slower than on its own.
		modes := []string{"0", "1"}
		if *trace != "both" {
			modes = []string{*trace}
		}
		for i := range selected {
			for _, mode := range modes {
				if _, err := self.run(selected[i].name, mode, os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					os.Exit(1)
				}
			}
		}
	default:
		if err := runOne(&selected[0], *seed, *seconds, *trace == "1", *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
}

// runOne measures one workload in one mode in this process and prints the
// report and, last, the result line.
func runOne(w *workload, seed int64, seconds float64, layers bool, outDir string) error {
	workers := min(runtime.NumCPU(), 4)
	pool.SetWorkers(workers)
	m := readMachine(runtime.NumCPU())
	fmt.Printf("machine: cpu=%q cores=%d llc=%.1fMiB go=%s kernel=%s pool.workers=%d\n",
		m.cpuModel, m.cores, float64(m.llcBytes)/mb, runtime.Version(), tensor.KernelVariant(), workers)
	fmt.Printf("== %s (seed %d): %s\n", w.name, seed, w.why)

	if !layers {
		rep := measureEndToEnd(w, seed, endToEndPlan(seconds))
		printReport(rep, "end-to-end, tracing off")
		return printResultLine(rep)
	}
	inst, _ := setUp(w, seed)
	rep, err := layersOn(w, inst, layersPlan(w, seconds), outDir)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	roof := measureRoofline(m)
	addRoofline(rep, roof)
	printReport(rep, "per-layer, from the traced, counters and serial passes")
	fmt.Printf("   roofline: transposed tensor %.0f MiB = %.1fx the %.1f MiB LLC\n",
		float64(roof.transposeBytes)/mb, float64(roof.transposeBytes)/float64(max(m.llcBytes, 1)), float64(m.llcBytes)/mb)
	fmt.Printf("   trace: %s\n", rep.tracePath)
	return printResultLine(rep)
}

func printReport(r *report, title string) {
	status := "ok"
	if !r.correct {
		status = "INCORRECT"
	}
	fmt.Printf("   %s (ops=%d failed=%d %s)\n", title, r.ops, r.failed, status)
	for _, m := range r.metrics {
		fmt.Printf("     %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// resultLine is the JSON object that ends the output of a single run.
// fail_ratio is carried by "failed"/"attempted" rather than as a metric:
// it is zero on a healthy run, and a bound that is a share of zero bounds
// nothing.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(r *report) error {
	out := resultLine{Correct: r.correct, Attempted: r.ops, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range r.metrics {
		if m.name == "fail_ratio" {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, m.name, m.value)
		}
		out.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

// child runs this binary again on one workload in one mode.
type child struct {
	seed    int64
	seconds float64
	outDir  string
}

// run copies the child's output to w and returns its result line.
func (c child) run(workload, trace string, w io.Writer) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("find own binary: %w", err)
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, "-workload", workload, "-trace", trace, "-out", c.outDir,
		"-seed", strconv.FormatInt(c.seed, 10), "-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64))
	cmd.Stdout = io.MultiWriter(w, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s -trace %s: %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s -trace %s: result line: %w", workload, trace, err)
	}
	return res, nil
}

// runAA measures every workload twice with the same binary — the second
// set in the opposite order — and reports whether the two sets agree
// within the bounds the benchmark holds later changes to.
func runAA(ws []workload, c child) (bool, error) {
	sets := [2]map[string]resultLine{{}, {}}
	for s := range sets {
		for i := range ws {
			name := ws[i].name
			if s == 1 {
				name = ws[len(ws)-1-i].name
			}
			fmt.Printf("A/A set %d: %s\n", s+1, name)
			res, err := c.run(name, "0", io.Discard)
			if err != nil {
				return false, err
			}
			sets[s][name] = res
		}
	}
	ok := true
	fmt.Printf("\n%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i := range ws {
		a, b := sets[0][ws[i].name], sets[1][ws[i].name]
		for _, e := range endToEnd {
			va, vb := a.Metrics[e.name].Value, b.Metrics[e.name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := ""
			if !(diff <= e.share) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", ws[i].name, e.name, va, vb, 100*diff, 100*e.share, verdict)
		}
		if a.Failed+b.Failed > 0 || !a.Correct || !b.Correct {
			fmt.Printf("%-12s fail_ratio: %d and %d operations failed  EXCEEDS\n", ws[i].name, a.Failed, b.Failed)
			ok = false
		}
	}
	if ok {
		fmt.Println("A/A: the two sets agree within every bound")
	} else {
		fmt.Println("A/A: the two sets differ by more than a bound")
	}
	return ok, nil
}
