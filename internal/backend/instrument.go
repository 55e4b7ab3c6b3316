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
// backend.orth) under the span the engine value carries, einsum's
// GEMM/move observers feed the einsum.* counters, and — when the inner
// engine is a *Dist — every span is annotated with the machine-model
// deltas of the region (modeled seconds, communication bytes), so modeled
// time appears alongside measured time in traces and summaries.
//
// It only ever adds observers: a traced contraction replays the tape, with
// the kernels and into the storage, the inner engine would have used, so
// the traced program is the timed program.
//
// It is also where the health.Policy NaN/Inf stage guards live: every
// kernel result is scanned at the engine boundary (under any engine, in
// both the traced and untraced paths), so a single policy flag covers
// every backend. While obs is disabled and the health policy is off,
// every method delegates straight to the inner engine after a few atomic
// loads, so wrapping is free on hot paths.
type Instrumented struct {
	inner Engine
	grid  *dist.Grid // nil unless inner is a *Dist
	// span parents the spans this engine value opens: the trace root on
	// the engine Instrument returns, a lattice function's span on the
	// copies Scope and Under hand out. The engine is the one value every
	// lattice call already passes down, so it is what carries the handle.
	span *obs.Span
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

// SpanOf returns the span e carries: the parent for task groups a lattice
// function fans out. Nil for the trace root and for engines that carry
// none.
func SpanOf(e Engine) *obs.Span {
	switch v := e.(type) {
	case *Instrumented:
		return v.span
	case *InstrumentedSym:
		return v.span
	}
	return nil
}

// Under returns e bound to sp, so the kernel spans of everything called
// with the returned engine, and the scopes opened from it, nest under sp.
// It is a shallow copy of the instrumentation; e itself when sp is nil
// (tracing off) or e cannot carry a span — its spans then stay at the
// trace root.
func Under(e Engine, sp *obs.Span) Engine {
	if sp == nil {
		return e
	}
	switch v := e.(type) {
	case *Instrumented:
		c := *v
		c.span = sp
		return &c
	case *InstrumentedSym:
		c := *v.Instrumented
		c.span = sp
		return &InstrumentedSym{Instrumented: &c, symInner: v.symInner}
	}
	return e
}

// Scope opens a span named name under the one e carries and returns e
// bound to it, with the span for the caller to annotate and End: how a
// lattice function opens its span. The scoped engine must not outlive
// the span. While no sink is installed it returns (e, nil) after one
// atomic load.
func Scope(e Engine, name string) (Engine, *obs.Span) {
	sp := SpanOf(e).StartChild(name)
	return Under(e, sp), sp
}

// Unwrap returns the engine beneath the instrumentation.
func (ie *Instrumented) Unwrap() Engine { return ie.inner }

func (ie *Instrumented) Name() string { return ie.inner.Name() }

// region is one traced kernel call: its span and the grid and flop
// snapshots its annotations are deltas of. The zero region (what begin
// returns while untraced) is inert.
type region struct {
	sp     *obs.Span
	before dist.Stats
	flops  int64
}

func (ie *Instrumented) begin(name string) region {
	sp := ie.span.StartChild(name)
	if sp == nil {
		return region{}
	}
	r := region{sp: sp, flops: tensor.FlopCount()}
	if ie.grid != nil {
		r.before = ie.grid.Snapshot()
	}
	return r
}

// end closes the region's span, annotated with the grid's machine-model
// delta (modeled seconds next to the measured duration) and the global
// flop-counter delta, so offline analyzers can rank spans by flops. That
// counter is process-global: when concurrent task spans overlap, each
// span's delta includes flops other tasks charged meanwhile, so per-span
// flops are attribution hints, not an exact partition (the
// einsum.gemm.flops counter and the grid accounting stay exact).
func (ie *Instrumented) end(r region) {
	if r.sp == nil {
		return
	}
	if ie.grid != nil {
		d := ie.grid.Snapshot().Sub(r.before)
		r.sp.SetFloat("modeled_s", d.ModeledSeconds())
		r.sp.SetFloat("modeled_comm_s", d.CommSeconds())
		r.sp.SetInt("comm_bytes", d.Bytes)
	}
	if d := tensor.FlopCount() - r.flops; d > 0 {
		r.sp.SetInt("flops", d)
	}
	r.sp.End()
}

// countingHooks are the observers a traced contraction adds.
var countingHooks = einsum.Hooks{
	OnGEMM: func(batch, m, n, k int) {
		obsGEMMFlops.Add(einsum.FlopCount(batch, m, n, k))
		obsGEMMCalls.Add(1)
	},
	OnMove: func(elements int) {
		obsMoveElems.Add(int64(elements))
		obsMoveBytes.Add(int64(elements) * bytesPerElem)
	},
}

// hooked is implemented by this package's engines: the einsum hooks their
// own Einsum (mixed: EinsumMixed) runs a contraction with. Instrumented
// chains countingHooks onto them instead of re-deriving each engine's
// path; an engine from elsewhere is timed around its own Einsum.
type hooked interface {
	hooks(mixed bool) einsum.Hooks
}

func (*Dense) hooks(mixed bool) einsum.Hooks {
	if mixed {
		return einsum.Hooks{GEMM: tensor.BatchMatMulMixed}
	}
	return einsum.Hooks{}
}

// einsum serves the three contraction entry points. dst and mixed select
// the inner engine's EinsumInto and EinsumMixed; the callers below have
// checked that it has them.
func (ie *Instrumented) einsum(dst []complex128, mixed bool, spec string, ops []*tensor.Dense) *tensor.Dense {
	r := ie.begin("einsum")
	r.sp.SetStr("spec", spec)
	if mixed {
		r.sp.SetStr("precision", "mixed-c64")
	}
	obsContracts.Add(1)
	var out *tensor.Dense
	if h, ok := ie.inner.(hooked); ok && obs.Enabled() {
		out = contract(dst, spec, ops, countingHooks.Chain(h.hooks(mixed)))
	} else if dst != nil {
		out = ie.inner.(IntoContractor).EinsumInto(dst, spec, ops...)
	} else if mixed {
		out = ie.inner.(MixedContractor).EinsumMixed(spec, ops...)
	} else {
		out = ie.inner.Einsum(spec, ops...)
	}
	ie.end(r)
	health.CheckTensor("backend.einsum", out)
	return out
}

func (ie *Instrumented) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return ie.einsum(nil, false, spec, ops)
}

// EinsumMixed forwards the mixed-precision contraction capability
// through the instrumentation when the inner engine has it; an inner
// engine without it runs full precision, so wrapping never changes which
// precisions are reachable.
func (ie *Instrumented) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	_, ok := ie.inner.(MixedContractor)
	return ie.einsum(nil, ok, spec, ops)
}

// EinsumInto forwards the caller-owned-destination capability, traced or
// not; an inner engine without it allocates the result.
func (ie *Instrumented) EinsumInto(dst []complex128, spec string, ops ...*tensor.Dense) *tensor.Dense {
	if _, ok := ie.inner.(IntoContractor); !ok {
		dst = nil
	}
	return ie.einsum(dst, false, spec, ops)
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
	reg := ie.begin("backend.qrsplit")
	q, r := ie.inner.QRSplit(t, leftAxes)
	ie.end(reg)
	checkFactorization("backend.qrsplit", q, r, nil)
	return q, r
}

func (ie *Instrumented) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	reg := ie.begin("backend.truncsvd")
	u, s, v := ie.inner.TruncSVD(m, rank)
	// Record the rank actually kept, not the requested cap (callers pass
	// a huge sentinel for "exact"), so summary sums stay meaningful.
	reg.sp.SetInt("rank", int64(len(s)))
	ie.end(reg)
	checkFactorization("backend.truncsvd", u, v, s)
	return u, s, v
}

func (ie *Instrumented) Orth(x *tensor.Dense) *tensor.Dense {
	reg := ie.begin("backend.orth")
	q := ie.inner.Orth(x)
	ie.end(reg)
	health.CheckTensor("backend.orth", q)
	return q
}
