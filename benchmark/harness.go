package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
)

// metric is one named, united number of the report.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	ops       int // operations attempted in the timed pass
	failed    int
	correct   bool
	metrics   []metric
	tracePath string // written by the per-layer run
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one closed loop of operations by the single client goroutine.
type pass struct {
	results  []opResult
	wall     time.Duration
	cpu      time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	planHit  int64
	planMiss int64
}

func (p *pass) millis() []float64 {
	ms := make([]float64, len(p.results))
	for i, r := range p.results {
		ms[i] = r.millis
	}
	return ms
}

func (p *pass) n() float64 { return float64(len(p.results)) }

// runOp times one operation and recovers a panic into a failed result,
// so one bad operation is counted against the number attempted without
// ending the run.
func runOp(inst *instance, in inputs, i int, wrap wrapFn) (r opResult) {
	fallbacks := health.SVDFallbacks()
	t0 := time.Now()
	defer func() {
		r.millis = float64(time.Since(t0).Nanoseconds()) / 1e6
		if p := recover(); p != nil {
			r.panicked = true
			fmt.Fprintf(os.Stderr, "benchmark: operation %d panicked: %v\n", i, p)
		}
		r.fellBack = health.SVDFallbacks() != fallbacks
	}()
	r.value, r.maxBond = inst.op(in.pick(i), i, wrap)
	return r
}

// freshen puts the process in the state every pass starts from — empty
// plan cache, zero health counters, collected heap — and then runs one
// untimed warm-up operation so the plan cache is full again. A pass's
// numbers therefore do not depend on which passes or workloads ran
// before it.
func freshen(inst *instance, in inputs, wrap wrapFn) {
	einsum.ResetPlanCache()
	health.ResetCounters()
	runtime.GC()
	runOp(inst, in, -1, wrap)
}

// runPass runs operations 0, 1, ... one after another until at least
// minOps have run and budget has elapsed.
func runPass(inst *instance, in inputs, minOps int, budget time.Duration, wrap wrapFn) *pass {
	p := &pass{}
	hit0, miss0, _ := einsum.PlanCacheStats()
	runtime.ReadMemStats(&p.mem0)
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := 0; i < minOps || time.Since(t0) < budget; i++ {
		p.results = append(p.results, runOp(inst, in, i, wrap))
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.mem1)
	hit1, miss1, _ := einsum.PlanCacheStats()
	p.planHit, p.planMiss = hit1-hit0, miss1-miss0
	return p
}

// setUp builds the workload's instance and warms it up: everything a
// user waits for before the first timed operation.
func setUp(w *workload, seed int64) (*instance, time.Duration) {
	einsum.ResetPlanCache()
	runtime.GC()
	t0 := time.Now()
	inst := w.build(seed)
	inst.calibrate()
	freshen(inst, inst.states, nil)
	return inst, time.Since(t0)
}

const mb = 1 << 20

// accuracyOps is how many leading operations accuracy_digits is taken
// over: a fixed count, so the value is a pure function of the seed even
// though the timed loop is bounded by time.
const accuracyOps = minP90Samples

func accuracyDigits(inst *instance, rs []opResult) float64 {
	if !math.IsNaN(inst.twinDigits) {
		return inst.twinDigits
	}
	if len(rs) > accuracyOps {
		rs = rs[:accuracyOps]
	}
	errs := make([]float64, len(rs))
	for i, r := range rs {
		errs[i] = relErr(r.value, inst.check.ref)
	}
	return digits(median(errs))
}

// plan sizes the passes of one run.
type plan struct {
	minSetups, maxSetups int           // end-to-end run: how often set-up is repeated
	minOps               int           // timed pass: at least this many operations...
	budget               time.Duration // ...and at least this long

	// Per-layer run: operations in the traced pass, in the counters and
	// serial passes, and kept span by span for the trace file.
	tracedOps, shortOps, keptOps int
}

// endToEndPlan: the loop runs for the given time and until a p90 has its
// hundred samples. Set-up runs at least three times; a cheap one repeats
// until two seconds are spent (at most nine times), so that a sub-second
// set-up's median is steady too.
func endToEndPlan(seconds float64) plan {
	return plan{minSetups: 3, maxSetups: 9, minOps: minP90Samples, budget: time.Duration(seconds * float64(time.Second))}
}

// layersPlan: the timed pass takes half the run; the other passes run
// fixed fractions of the workload's nominal operation count, so their
// exact counts repeat. The timed pass runs at least as many operations as
// the traced pass, so each traced result has a counterpart to match.
func layersPlan(w *workload, seconds float64) plan {
	traced := w.nominalOps / 5
	return plan{minOps: traced, budget: time.Duration(seconds / 2 * float64(time.Second)),
		tracedOps: traced, shortOps: w.nominalOps / 10, keptOps: keptOps}
}

// measureEndToEnd is the run a user-visible number comes from: set-up
// (several times, median reported), then the timed closed loop with
// every kind of tracing off.
func measureEndToEnd(w *workload, seed int64, pl plan) *report {
	var inst *instance
	var setups []float64
	var total time.Duration
	for len(setups) < pl.minSetups || (total < 2*time.Second && len(setups) < pl.maxSetups) {
		var d time.Duration
		inst, d = setUp(w, seed)
		setups = append(setups, d.Seconds())
		total += d
	}
	return endToEndOn(w, inst, setups, pl)
}

// endToEndOn runs the timed pass on a set-up instance.
func endToEndOn(w *workload, inst *instance, setups []float64, pl plan) *report {
	p := runPass(inst, inst.states, pl.minOps, pl.budget, nil)

	rep := &report{workload: w.name, ops: len(p.results), failed: countFailed(inst.check, p.results)}
	ms := p.millis()
	rep.add("setup_s", "s", median(setups))
	rep.add("op_median_ms", "ms", median(ms))
	if v, err := p90(ms); err == nil {
		rep.add("op_p90_ms", "ms", v)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: %s: op_p90_ms not reported: %v\n", w.name, err)
	}
	rep.add("ops_per_s", "1/s", p.n()/p.wall.Seconds())
	rep.add("alloc_mb_per_op", "MB", float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/mb/p.n())
	rep.add("accuracy_digits", "digits", accuracyDigits(inst, p.results))
	rep.add("fail_ratio", "ratio", float64(rep.failed)/p.n())
	rep.correct = rep.failed == 0
	return rep
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layersOn is the run the per-layer numbers come from, on a set-up
// instance. A timed pass as in endToEndOn gives the baseline; then three
// short passes attribute it: a traced pass behind the timing Engine
// wrapper, a counters pass with obs enabled, and a serial pass with one
// worker. The tensor rates are added afterwards by addRoofline.
func layersOn(w *workload, inst *instance, pl plan, outDir string) (*report, error) {
	timed := runPass(inst, inst.states, pl.minOps, pl.budget, nil)
	timedMedian := median(timed.millis())

	// Traced pass: the same operations behind the timing Engine wrapper,
	// totalled per kernel.
	rec := newRecorder()
	var factorCalls atomic.Int64
	count := wrapFn(func(st einsumsvd.Strategy) einsumsvd.Strategy {
		return countingStrategy{inner: st, calls: &factorCalls}
	})
	wrap := count
	if !inst.wrapTraced {
		wrap = nil
	}
	tracedStates := inst.states.rebind(wrapEngine(inst.eng, rec))
	freshen(inst, tracedStates, count) // the warm-up also fills the cost memo
	warmupFactorCalls := factorCalls.Swap(0)
	var grid0 dist.Stats
	if inst.grid != nil {
		grid0 = inst.grid.Snapshot()
	}
	rec.mode.Store(modeTotals)
	traced := runPass(inst, tracedStates, pl.tracedOps, 0, wrap)
	rec.mode.Store(modeOff)
	var gridDelta dist.Stats
	if inst.grid != nil {
		gridDelta = inst.grid.Snapshot().Sub(grid0)
	}
	svdFallbacks, gramFallbacks, nonconverged := health.SVDFallbacks(), health.GramFallbacks(), health.Nonconverged()
	factorPerOp := float64(warmupFactorCalls)
	if inst.wrapTraced {
		factorPerOp = float64(factorCalls.Load()) / traced.n()
	}

	// The wrappers must be inert: same operation, same bits.
	identical := true
	for i := 0; i < len(traced.results) && i < len(timed.results); i++ {
		if math.Float64bits(traced.results[i].value) != math.Float64bits(timed.results[i].value) {
			identical = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: operation %d differs behind the timing wrapper: %v vs %v\n",
				w.name, i, traced.results[i].value, timed.results[i].value)
			break
		}
	}

	// ite_j1j2 only: the two public calls ite.Evolve composes, timed apart.
	var applyMs, expectMs []float64
	if inst.applyCircuit != nil {
		for i := 0; i < pl.tracedOps; i++ {
			c := tracedStates.pick(i).Clone()
			t0 := time.Now()
			inst.applyCircuit(c)
			t1 := time.Now()
			inst.expectation(c, i)
			applyMs = append(applyMs, durMs(t1.Sub(t0)))
			expectMs = append(expectMs, durMs(time.Since(t1)))
		}
	}

	// The trace file: a few more operations, every span kept.
	rec.mode.Store(modeKeep)
	for i := 0; i < pl.keptOps; i++ {
		rec.rootSpan(spanOp, i, func() { runOp(inst, tracedStates, i, wrap) })
		if inst.applyCircuit != nil {
			c := tracedStates.pick(i).Clone()
			rec.rootSpan(spanApplyCircuit, i, func() { inst.applyCircuit(c) })
			rec.rootSpan(spanExpectation, i, func() { inst.expectation(c, i) })
		}
	}
	rec.mode.Store(modeOff)

	// Counters pass: the program's own public counters, and what turning
	// obs on costs.
	obs.Enable()
	countedStates := inst.states.rebind(backend.Instrument(inst.eng))
	freshen(inst, countedStates, nil)
	c0 := readObsCounters()
	counted := runPass(inst, countedStates, pl.shortOps, 0, nil)
	c1 := readObsCounters()
	if err := obs.Disable(); err != nil {
		return nil, fmt.Errorf("disable obs: %w", err)
	}

	// Serial pass: the same operations with one worker.
	workers := pool.Size()
	pool.SetWorkers(1)
	freshen(inst, inst.states, nil)
	serial := runPass(inst, inst.states, pl.shortOps, 0, nil)
	pool.SetWorkers(workers)

	rep := &report{workload: w.name, ops: len(timed.results)}
	for _, p := range []*pass{timed, traced, counted, serial} {
		rep.failed += countFailed(inst.check, p.results)
	}
	rep.correct = rep.failed == 0 && identical

	n := traced.n()
	cpuMs := durMs(traced.cpu) / n
	busyMs := func(k *kernelTotals) float64 { return float64(k.busyNs.Load()) / 1e6 }
	calls := func(k *kernelTotals) float64 { return float64(k.calls.Load()) }
	engineBusyMs := busyMs(&rec.einsum) + busyMs(&rec.qrsplit) + busyMs(&rec.truncsvd) + busyMs(&rec.orth)

	rep.add("cpu_ms_per_op", "ms", cpuMs)

	cmacs := float64(rec.einsum.cmacs.Load())
	einsumGflops := ratio(8*cmacs, float64(rec.einsum.busyNs.Load()))
	rep.add("einsum.calls_per_op", "count", calls(&rec.einsum)/n)
	rep.add("einsum.busy_ms_per_op", "ms", busyMs(&rec.einsum)/n)
	rep.add("einsum.busy_share", "ratio", ratio(busyMs(&rec.einsum), durMs(traced.cpu)))
	rep.add("einsum.cmacs_per_op", "count", cmacs/n)
	rep.add("einsum.gflops", "GFLOP/s", einsumGflops)
	rep.add("einsum.plan_hit_ratio", "ratio", ratio(float64(traced.planHit), float64(traced.planHit+traced.planMiss)))
	rep.add("einsum.plan_misses", "count", float64(traced.planMiss))
	rep.add("einsum.gemm_calls_per_op", "count", (c1.gemmCalls-c0.gemmCalls)/counted.n())
	rep.add("einsum.move_mb_per_op", "MB", (c1.moveBytes-c0.moveBytes)/mb/counted.n())

	for _, k := range []struct {
		metric string
		totals *kernelTotals
	}{{"linalg.truncsvd", &rec.truncsvd}, {"linalg.qrsplit", &rec.qrsplit}, {"linalg.orth", &rec.orth}} {
		rep.add(k.metric+"_calls_per_op", "count", calls(k.totals)/n)
		rep.add(k.metric+"_busy_ms_per_op", "ms", busyMs(k.totals)/n)
		rep.add(k.metric+"_busy_share", "ratio", ratio(busyMs(k.totals), durMs(traced.cpu)))
	}
	rep.add("linalg.gram_fallback_ratio", "ratio", ratio(float64(gramFallbacks), calls(&rec.qrsplit)))
	rep.add("linalg.nonconverged_per_op", "count", float64(nonconverged)/n)

	rep.add("einsumsvd.factor_calls_per_op", "count", factorPerOp)
	rep.add("einsumsvd.randsvd_fallbacks_per_op", "count", float64(svdFallbacks)/n)
	rep.add("einsumsvd.fallback_ratio", "ratio", ratio(float64(svdFallbacks)/n, factorPerOp))

	rep.add("peps.self_ms_per_op", "ms", cpuMs-engineBusyMs/n)
	var applyMed, expectMed, iteSelf float64
	if inst.applyCircuit != nil {
		applyMed, expectMed = median(applyMs), median(expectMs)
		iteSelf = median(traced.millis()) - applyMed - expectMed
	}
	rep.add("peps.applycircuit_ms_per_op", "ms", applyMed)
	rep.add("peps.expectation_ms_per_op", "ms", expectMed)
	rep.add("ite.self_ms_per_op", "ms", iteSelf)

	rep.add("pool.workers", "count", float64(workers))
	rep.add("pool.speedup_vs_1", "ratio", ratio(median(serial.millis()), timedMedian))
	rep.add("pool.cpu_util", "ratio", ratio(timed.cpu.Seconds(), timed.wall.Seconds()*float64(workers)))
	groupTasks := c1.groupTasks - c0.groupTasks
	groupInline := c1.groupInline - c0.groupInline
	rep.add("pool.group_tasks_per_op", "count", (groupTasks+groupInline)/counted.n())
	rep.add("pool.group_inline_ratio", "ratio", ratio(groupInline, groupTasks+groupInline))
	rep.add("pool.group_wait_ms_per_op", "ms", (c1.groupWait-c0.groupWait)*1e3/counted.n())

	rep.add("dist.modeled_ms_per_op", "ms", gridDelta.ModeledSeconds()*1e3/n)
	rep.add("dist.comm_mb_per_op", "MB", float64(gridDelta.Bytes)/mb/n)
	rep.add("dist.msgs_per_op", "count", float64(gridDelta.Msgs)/n)
	rep.add("dist.redistributions_per_op", "count", float64(gridDelta.Redistributions)/n)

	rep.add("runtime.mallocs_per_op", "count", float64(timed.mem1.Mallocs-timed.mem0.Mallocs)/timed.n())
	rep.add("runtime.gc_pause_ms_per_op", "ms", float64(timed.mem1.PauseTotalNs-timed.mem0.PauseTotalNs)/1e6/timed.n())
	rep.add("runtime.peak_heap_mb", "MB", float64(timed.mem1.HeapSys)/mb)

	rep.add("obs.enabled_overhead_ratio", "ratio", ratio(median(counted.millis()), timedMedian))
	rep.add("trace.overhead_ratio", "ratio", ratio(median(traced.millis()), timedMedian))

	path, err := rec.writeJSONL(outDir, w.name)
	if err != nil {
		return nil, err
	}
	rep.tracePath = path
	return rep, nil
}

// addRoofline completes a per-layer report with the tensor-layer rates
// and the einsum rate read against them. The rates are measured once per
// invocation after every workload's passes: the transpose needs half a
// gigabyte of buffers, and an operation's time follows the state of the
// heap (see README).
func addRoofline(rep *report, rf *roofline) {
	rep.add("tensor.gemm256_gflops", "GFLOP/s", rf.gemm256)
	rep.add("tensor.gemm_skinny_gflops", "GFLOP/s", rf.gemmSkinny)
	rep.add("tensor.transpose_gbs", "GB/s", rf.transpose)
	rep.add("einsum.kernel_efficiency", "ratio", ratio(rep.get("einsum.gflops"), rf.gemm256))
}

// obsCounters are the public obs counters the counters pass reads.
type obsCounters struct {
	gemmCalls, moveBytes               float64
	groupTasks, groupInline, groupWait float64
}

func readObsCounters() obsCounters {
	return obsCounters{
		gemmCalls:   obs.MetricValueOf("einsum.gemm.calls"),
		moveBytes:   obs.MetricValueOf("einsum.move.bytes"),
		groupTasks:  obs.MetricValueOf("pool.group.tasks"),
		groupInline: obs.MetricValueOf("pool.group.inline"),
		groupWait:   obs.MetricValueOf("pool.group.wait_seconds"),
	}
}
