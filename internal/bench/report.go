package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gokoala/internal/einsum"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// SuiteResult is the machine-readable record koala-bench emits per
// experiment when -json is given: one BENCH_<suite>.json per suite, so
// downstream tooling (regression trackers, plotting scripts) can diff
// runs without scraping the text tables.
type SuiteResult struct {
	// Suite is the experiment name as passed on the command line
	// (e.g. "table2", "fig7a").
	Suite string `json:"suite"`
	// Params records the configuration the suite ran with.
	Params interface{} `json:"params,omitempty"`
	// WallSeconds is the measured wall-clock time of the whole suite.
	WallSeconds float64 `json:"wall_seconds"`
	// ModeledSeconds is the machine-model time accumulated by the
	// simulated distributed runtime during the suite (computation plus
	// communication), zero for dense-only suites. The Comp/Comm fields
	// carry the split.
	ModeledSeconds     float64 `json:"modeled_seconds"`
	ModeledCompSeconds float64 `json:"modeled_comp_seconds"`
	ModeledCommSeconds float64 `json:"modeled_comm_seconds"`
	// Flops is the complex-flop count charged to the global tensor
	// counter during the suite.
	Flops int64 `json:"flops"`
	// CommBytes is the modeled communication volume.
	CommBytes int64 `json:"comm_bytes"`
	// PlanCacheHits/Misses/HitRate record how well the einsum plan
	// cache absorbed the suite's contraction stream (hit rate over the
	// whole process up to collection, since the cache is global).
	PlanCacheHits   int64   `json:"plan_cache_hits"`
	PlanCacheMisses int64   `json:"plan_cache_misses"`
	PlanCacheRate   float64 `json:"plan_cache_hit_rate"`
	// Workers is the pool size the primary run used.
	Workers int `json:"workers"`
	// SpeedupVs1 is the wall-clock speedup at the primary worker count
	// relative to the single-worker rerun of the scaling sweep (zero when
	// no sweep ran).
	SpeedupVs1 float64 `json:"speedup_vs_1,omitempty"`
	// Scaling is the worker-count scaling curve recorded by rerunning the
	// suite at increasing pool sizes.
	Scaling []ScalingPoint `json:"scaling,omitempty"`
	// Lattice task scheduler counters: tasks that got their own
	// goroutine, tasks run inline under token contention, and coordinator
	// seconds spent waiting on task groups.
	GroupTasks       int64   `json:"group_tasks"`
	GroupInline      int64   `json:"group_inline"`
	GroupWaitSeconds float64 `json:"group_wait_seconds"`
	// TaskCount is the deterministic task-submission count
	// (pool.task.count): every lattice task, whether it ran on its own
	// goroutine or inline, unlike the scheduling-dependent split above.
	TaskCount int64 `json:"task_count"`
	// PeakBytes is the high-water mark of tracked scratch memory
	// (einsum frame pools, threaded-kernel output staging) during the
	// suite. Wall-clock-like: it depends on scheduling, so it is
	// reported but never gated.
	PeakBytes int64 `json:"peak_bytes"`
	// Health records the numerical-health counters the suite tripped.
	Health HealthCounters `json:"health"`
	// Sym carries the per-model dense-versus-block-sparse comparison of
	// the sym suite (nil for every other suite).
	Sym *SymSuiteDetail `json:"sym,omitempty"`
	// Kernel records which compute kernels served the suite. Every field
	// is machine-dependent (which CPU ran, which dispatch won), so like
	// wall-clock it is reported for context and never gated by
	// CompareSuite.
	Kernel *KernelInfo `json:"kernel,omitempty"`
}

// KernelInfo is the per-suite snapshot of the compute-kernel dispatch:
// the variant that won CPU detection (or was forced via KOALA_KERNEL /
// -kernel), the features behind the choice, per-class GEMM dispatch
// counts, and the realized arithmetic rate.
type KernelInfo struct {
	// Variant is the selected kernel implementation ("avx2" or "go").
	Variant string `json:"variant"`
	// CPUFeatures lists the detected SIMD features (empty on non-amd64
	// and purego builds).
	CPUFeatures string `json:"cpu_features,omitempty"`
	// GFlops is the realized rate in real GFLOP/s over the suite's wall
	// time, counting one complex multiply-add as 8 real flops. Zero when
	// no wall time was measured.
	GFlops float64 `json:"gflops,omitempty"`
	// GEMMAsm / GEMMGo / GEMMMixed count gemm dispatches per kernel
	// class: assembly complex128 panels, portable Go panels, and
	// complex64 mixed-precision batches (the RandSVD sketch path).
	GEMMAsm   int64 `json:"gemm_asm_calls"`
	GEMMGo    int64 `json:"gemm_go_calls"`
	GEMMMixed int64 `json:"gemm_mixed_calls"`
	// F32Sketch records whether the complex64 RandSVD sketch stage
	// (-f32-sketch) was enabled for the run.
	F32Sketch bool `json:"f32_sketch"`
}

// HealthCounters is the per-suite snapshot of the numerical-health
// counters (see internal/health); all zero on a clean run.
type HealthCounters struct {
	NaNDetected        int64 `json:"nan_detected"`
	SVDFallbacks       int64 `json:"svd_fallbacks"`
	GramFallbacks      int64 `json:"gram_fallbacks"`
	Nonconverged       int64 `json:"nonconverged"`
	CheckpointFailures int64 `json:"checkpoint_failures"`
}

// ScalingPoint is one entry of a worker-count scaling curve.
type ScalingPoint struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
}

// CollectSuiteMetrics fills the obs-derived fields of a SuiteResult from
// the current counter registry. Call it after the suite ran and before
// obs.ResetCounters.
func CollectSuiteMetrics(res *SuiteResult) {
	res.ModeledCommSeconds = obs.MetricValueOf("dist.modeled.comm_seconds")
	res.ModeledCompSeconds = obs.MetricValueOf("dist.modeled.comp_seconds")
	res.ModeledSeconds = res.ModeledCommSeconds + res.ModeledCompSeconds
	res.CommBytes = int64(obs.MetricValueOf("dist.comm.bytes"))
	res.PlanCacheHits, res.PlanCacheMisses, _ = einsum.PlanCacheStats()
	if total := res.PlanCacheHits + res.PlanCacheMisses; total > 0 {
		res.PlanCacheRate = float64(res.PlanCacheHits) / float64(total)
	}
	res.Workers = pool.Size()
	res.GroupTasks = int64(obs.MetricValueOf("pool.group.tasks"))
	res.GroupInline = int64(obs.MetricValueOf("pool.group.inline"))
	res.GroupWaitSeconds = obs.MetricValueOf("pool.group.wait_seconds")
	res.TaskCount = int64(obs.MetricValueOf("pool.task.count"))
	res.PeakBytes = obs.PeakBytes()
	if d := TakeSymDetail(); d != nil {
		res.Sym = d
	}
	res.Kernel = &KernelInfo{
		Variant:     tensor.KernelVariant(),
		CPUFeatures: tensor.CPUFeatures(),
		GEMMAsm:     int64(obs.MetricValueOf("kernel.gemm_asm")),
		GEMMGo:      int64(obs.MetricValueOf("kernel.gemm_go")),
		GEMMMixed:   int64(obs.MetricValueOf("kernel.gemm_mixed")),
		F32Sketch:   sketch32,
	}
	if res.WallSeconds > 0 {
		res.Kernel.GFlops = 8 * float64(res.Flops) / res.WallSeconds / 1e9
	}
	res.Health = HealthCounters{
		NaNDetected:        int64(obs.MetricValueOf("health.nan_detected")),
		SVDFallbacks:       int64(obs.MetricValueOf("health.svd_fallbacks")),
		GramFallbacks:      int64(obs.MetricValueOf("health.gram_fallbacks")),
		Nonconverged:       int64(obs.MetricValueOf("health.nonconverged")),
		CheckpointFailures: int64(obs.MetricValueOf("health.checkpoint_failures")),
	}
}

// WriteBenchJSON writes res as dir/BENCH_<suite>.json (indented, with a
// trailing newline) and returns the path written.
func WriteBenchJSON(dir string, res SuiteResult) (string, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", res.Suite))
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
