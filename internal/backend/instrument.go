package backend

import (
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Obs counter names fed by the instrumented engine (registered once).
var (
	obsGEMMFlops = obs.NewCounter("einsum.gemm.flops")
	obsGEMMCalls = obs.NewCounter("einsum.gemm.calls")
	obsMoveElems = obs.NewCounter("einsum.move.elements")
	obsMoveBytes = obs.NewCounter("einsum.move.bytes")
	obsContracts = obs.NewCounter("einsum.contractions")
)

// Instrumented decorates an Engine with obs spans and counters: every
// kernel call becomes a span (einsum, backend.qrsplit, backend.truncsvd,
// backend.orth), einsum's GEMM/move hooks feed the einsum.* counters,
// each batched GEMM gets its own child span, and — when the inner engine
// is a *Dist — every span is annotated with the machine-model deltas of
// the region (modeled seconds, communication bytes), so modeled time
// appears alongside measured time in traces and summaries.
//
// It is also where the health.Policy NaN/Inf stage guards live: every
// kernel result is scanned at the engine boundary (under any engine, in
// both the traced and untraced paths), so a single policy flag covers
// every backend. While obs is disabled and the health policy is off,
// every method delegates straight to the inner engine after two atomic
// loads, so wrapping is free on hot paths.
type Instrumented struct {
	inner Engine
	grid  *dist.Grid // nil unless inner is a *Dist
}

// Instrument wraps an engine with observability instrumentation.
// Wrapping an already-instrumented engine returns it unchanged. Engines
// with block-sparse kernels get the sym-capable wrapper so SymOf still
// detects the capability through the instrumentation.
func Instrument(e Engine) Engine {
	if ie, ok := e.(*Instrumented); ok {
		return ie
	}
	if ise, ok := e.(*InstrumentedSym); ok {
		return ise
	}
	ie := &Instrumented{inner: e}
	if d, ok := e.(*Dist); ok {
		ie.grid = d.Grid
	}
	if se, ok := e.(SymEngine); ok {
		return &InstrumentedSym{Instrumented: ie, symInner: se}
	}
	return ie
}

// Unwrap returns the engine beneath the instrumentation.
func (ie *Instrumented) Unwrap() Engine { return ie.inner }

func (ie *Instrumented) Name() string { return ie.inner.Name() }

// statsBefore snapshots the grid accounting when there is a grid.
func (ie *Instrumented) statsBefore() dist.Stats {
	if ie.grid == nil {
		return dist.Stats{}
	}
	return ie.grid.Snapshot()
}

// annotate attaches the grid's machine-model delta for the region to the
// span, putting modeled seconds next to the span's measured duration.
func (ie *Instrumented) annotate(sp *obs.Span, before dist.Stats) {
	if sp == nil || ie.grid == nil {
		return
	}
	d := ie.grid.Snapshot().Sub(before)
	sp.SetFloat("modeled_s", d.ModeledSeconds())
	sp.SetFloat("modeled_comm_s", d.CommSeconds())
	sp.SetInt("comm_bytes", d.Bytes)
}

// setFlops attributes the global flop-counter delta of the region to the
// span, so offline analyzers can rank spans by flops. The counter is
// process-global: when concurrent task spans overlap, each span's delta
// includes flops other tasks charged meanwhile, so per-span flops are
// attribution hints, not an exact partition (the einsum.gemm.flops
// counter and the grid accounting stay exact).
func setFlops(sp *obs.Span, before int64) {
	if sp == nil {
		return
	}
	if d := tensor.FlopCount() - before; d > 0 {
		sp.SetInt("flops", d)
	}
}

// obsHooks returns einsum hooks that count primitives and emit a child
// span per batched GEMM. kernel is the multiply that actually runs
// (the grid SPMD kernel for Dist, the sequential kernel for Dense).
func obsHooks(kernel func(a, b *tensor.Dense) *tensor.Dense) einsum.Hooks {
	return einsum.Hooks{
		OnGEMM: func(batch, m, n, k int) {
			obsGEMMFlops.Add(einsum.FlopCount(batch, m, n, k))
			obsGEMMCalls.Add(1)
		},
		OnMove: func(elements int) {
			obsMoveElems.Add(int64(elements))
			obsMoveBytes.Add(int64(elements) * bytesPerElem)
		},
		GEMM: func(a, b *tensor.Dense) *tensor.Dense {
			sp := obs.Start("einsum.gemm")
			out := kernel(a, b)
			sp.End()
			return out
		},
	}
}

func (ie *Instrumented) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	if !obs.Enabled() {
		out := ie.inner.Einsum(spec, ops...)
		health.CheckTensor("backend.einsum", out)
		return out
	}
	sp := obs.Start("einsum").SetStr("spec", spec)
	before := ie.statsBefore()
	flopsBefore := tensor.FlopCount()
	obsContracts.Add(1)
	var hooks einsum.Hooks
	switch e := ie.inner.(type) {
	case *Dist:
		// Chain the distributed engine's metering hooks with the obs
		// observers; the GEMM child span wraps the grid SPMD kernel.
		oh := obsHooks(e.Grid.BatchMatMul)
		hooks = oh.Chain(e.Hooks())
	case *Dense:
		hooks = obsHooks(tensor.BatchMatMul)
	default:
		// Unknown engine: time the call but let it run its own path.
		out := e.Einsum(spec, ops...)
		ie.annotate(sp, before)
		setFlops(sp, flopsBefore)
		sp.End()
		health.CheckTensor("backend.einsum", out)
		return out
	}
	out, err := einsum.ContractWithHooks(spec, ops, hooks)
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	ie.annotate(sp, before)
	setFlops(sp, flopsBefore)
	sp.End()
	health.CheckTensor("backend.einsum", out)
	return out
}

// EinsumMixed forwards the mixed-precision contraction capability
// through the instrumentation when the inner engine has it, keeping the
// same spans, einsum.* counters, and NaN/Inf stage guard as Einsum. An
// inner engine without the capability falls back to full precision, so
// wrapping never changes which precisions are reachable.
func (ie *Instrumented) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	mc, ok := ie.inner.(MixedContractor)
	if !ok {
		return ie.Einsum(spec, ops...)
	}
	if !obs.Enabled() {
		out := mc.EinsumMixed(spec, ops...)
		health.CheckTensor("backend.einsum", out)
		return out
	}
	sp := obs.Start("einsum").SetStr("spec", spec).SetStr("precision", "mixed-c64")
	before := ie.statsBefore()
	flopsBefore := tensor.FlopCount()
	obsContracts.Add(1)
	hooks := obsHooks(tensor.BatchMatMulMixed)
	out, err := einsum.ContractWithHooks(spec, ops, hooks)
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	ie.annotate(sp, before)
	setFlops(sp, flopsBefore)
	sp.End()
	health.CheckTensor("backend.einsum", out)
	return out
}

// EinsumInto forwards the caller-owned-destination capability while obs
// is off. A traced run takes the Einsum path, with its spans and
// counters, and lets the result be allocated: the values are the same.
func (ie *Instrumented) EinsumInto(dst []complex128, spec string, ops ...*tensor.Dense) *tensor.Dense {
	ic, ok := ie.inner.(IntoContractor)
	if !ok || obs.Enabled() {
		return ie.Einsum(spec, ops...)
	}
	out := ic.EinsumInto(dst, spec, ops...)
	health.CheckTensor("backend.einsum", out)
	return out
}

// checkFactorization scans the post-factorization outputs at the stage
// boundary: both tensor factors and the real singular-value/weight
// vector (where an ill-conditioned solve first shows NaN).
func checkFactorization(stage string, a, b *tensor.Dense, s []float64) {
	if !health.Checking() {
		return
	}
	health.CheckTensor(stage, a)
	health.CheckTensor(stage, b)
	health.CheckFloats(stage, s)
}

func (ie *Instrumented) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	if !obs.Enabled() {
		q, r := ie.inner.QRSplit(t, leftAxes)
		checkFactorization("backend.qrsplit", q, r, nil)
		return q, r
	}
	sp := obs.Start("backend.qrsplit")
	before := ie.statsBefore()
	flopsBefore := tensor.FlopCount()
	q, r := ie.inner.QRSplit(t, leftAxes)
	ie.annotate(sp, before)
	setFlops(sp, flopsBefore)
	sp.End()
	checkFactorization("backend.qrsplit", q, r, nil)
	return q, r
}

func (ie *Instrumented) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	if !obs.Enabled() {
		u, s, v := ie.inner.TruncSVD(m, rank)
		checkFactorization("backend.truncsvd", u, v, s)
		return u, s, v
	}
	sp := obs.Start("backend.truncsvd")
	before := ie.statsBefore()
	flopsBefore := tensor.FlopCount()
	u, s, v := ie.inner.TruncSVD(m, rank)
	// Record the rank actually kept, not the requested cap (callers pass
	// a huge sentinel for "exact"), so summary sums stay meaningful.
	sp.SetInt("rank", int64(len(s)))
	ie.annotate(sp, before)
	setFlops(sp, flopsBefore)
	sp.End()
	checkFactorization("backend.truncsvd", u, v, s)
	return u, s, v
}

func (ie *Instrumented) Orth(x *tensor.Dense) *tensor.Dense {
	if !obs.Enabled() {
		q := ie.inner.Orth(x)
		health.CheckTensor("backend.orth", q)
		return q
	}
	sp := obs.Start("backend.orth")
	before := ie.statsBefore()
	flopsBefore := tensor.FlopCount()
	q := ie.inner.Orth(x)
	ie.annotate(sp, before)
	setFlops(sp, flopsBefore)
	sp.End()
	health.CheckTensor("backend.orth", q)
	return q
}
