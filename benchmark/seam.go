package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/tensor"
)

// Span names recorded at the backend.Engine seam, one per kernel.
const (
	spanEinsum   = "einsum"
	spanQRSplit  = "linalg.qrsplit"
	spanTruncSVD = "linalg.truncsvd"
	spanOrth     = "linalg.orth"
	spanOp       = "op" // root span of one traced operation

	// Root spans of the two halves of an ite_j1j2 operation, timed apart.
	spanApplyCircuit = "peps.applycircuit"
	spanExpectation  = "peps.expectation"
)

// span is one record of the trace. Engine spans are leaves: no Engine
// method calls another, so every leaf's parent is the root span of the
// operation that caused it, and a root's self time is its duration minus
// the part of it covered by its leaves (summed over goroutines).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // index of the operation; roots and their leaves share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	CMACs  int64  `json:"cmacs,omitempty"` // einsum only: complex multiply-adds of the compiled plan
}

// keptOps is how many operations keep their spans for the trace file.
// They are run after the traced pass, not as part of it: the program
// allocates ~100 MB per operation over a live heap of a few MB, so its GC
// frequency — and with it the time per operation — follows the live heap.
// Holding every span of an ite_j1j2 pass (9,500 an operation) made that
// pass 14% faster than the untraced one; holding three operations' worth
// still made it 6% faster. The traced pass therefore only totals.
const keptOps = 3

// Recorder modes.
const (
	modeOff    int32 = iota // forward only (the cost memo still fills)
	modeTotals              // add every Engine span to the kernel totals
	modeKeep                // keep every span, root and leaf, in memory
)

// kernelTotals accumulates one Engine kernel over the traced pass.
type kernelTotals struct {
	calls  atomic.Int64
	busyNs atomic.Int64
	cmacs  atomic.Int64
}

// recorder sits behind the timing Engine wrapper. In modeTotals it sums
// the Engine spans of the traced pass; in modeKeep it keeps spans in
// memory until the benchmark ends. One client goroutine opens one root at
// a time; pool workers running on its behalf record leaves concurrently.
type recorder struct {
	epoch time.Time
	mode  atomic.Int32

	einsum, qrsplit, truncsvd, orth kernelTotals

	root atomic.Int64 // modeKeep: id of the open root span
	op   atomic.Int64 // modeKeep: its operation index

	mu     sync.Mutex
	nextID int64
	spans  []span

	// costs memoises einsum.Compile(...).Cost(). Reads are one atomic load
	// of an immutable map: a lock taken by every Einsum call would make
	// the pool workers wait on each other.
	costs atomic.Pointer[map[uint64]planCost]
}

type planCost struct {
	spec  string
	cmacs int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.costs.Store(&map[uint64]planCost{})
	return r
}

func (r *recorder) kernel(name string) *kernelTotals {
	switch name {
	case spanEinsum:
		return &r.einsum
	case spanQRSplit:
		return &r.qrsplit
	case spanTruncSVD:
		return &r.truncsvd
	}
	return &r.orth
}

func (r *recorder) sinceEpoch(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// root runs body as the root span name of operation op. Outside modeKeep
// it just runs body.
func (r *recorder) rootSpan(name string, op int, body func()) {
	if r.mode.Load() != modeKeep {
		body()
		return
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	r.op.Store(int64(op))
	r.root.Store(id)
	start := time.Now()
	body()
	end := time.Now()
	r.root.Store(0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Op: op, Name: name, Start: r.sinceEpoch(start), End: r.sinceEpoch(end)})
	r.mu.Unlock()
}

func (r *recorder) leaf(name string, start, end time.Time, cmacs int64) {
	switch r.mode.Load() {
	case modeTotals:
		k := r.kernel(name)
		k.calls.Add(1)
		k.busyNs.Add(end.Sub(start).Nanoseconds())
		k.cmacs.Add(cmacs)
	case modeKeep:
		r.mu.Lock()
		r.nextID++
		r.spans = append(r.spans, span{ID: r.nextID, Parent: r.root.Load(), Op: int(r.op.Load()), Name: name,
			Start: r.sinceEpoch(start), End: r.sinceEpoch(end), CMACs: cmacs})
		r.mu.Unlock()
	}
}

// cmacs returns the exact complex multiply-add count of the plan einsum
// compiles for (spec, operand shapes). The memo is keyed by a 64-bit
// hash so a hit allocates nothing; the stored spec guards against the
// (astronomically unlikely) collision across different specs. Misses
// happen in the warm-up operation.
func (r *recorder) cmacs(spec string, ops []*tensor.Dense) int64 {
	// FNV-1a over the spec bytes and every dimension.
	key := uint64(14695981039346656037)
	mix := func(b byte) { key = (key ^ uint64(b)) * 1099511628211 }
	for i := 0; i < len(spec); i++ {
		mix(spec[i])
	}
	for _, op := range ops {
		for _, d := range op.Shape() {
			mix(byte(d))
			mix(byte(d >> 8))
			mix(byte(d >> 16))
			mix(byte(d >> 24))
		}
		mix(0xff) // operand separator
	}
	if c, ok := (*r.costs.Load())[key]; ok && c.spec == spec {
		return c.cmacs
	}
	shapes := make([][]int, len(ops))
	for i, op := range ops {
		shapes[i] = op.Shape()
	}
	p, err := einsum.Compile(spec, shapes)
	if err != nil {
		return 0 // the engine call itself reports a bad spec
	}
	c := planCost{spec: spec, cmacs: p.Cost().Flops}
	r.mu.Lock()
	next := maps.Clone(*r.costs.Load())
	next[key] = c
	r.costs.Store(&next)
	r.mu.Unlock()
	return c.cmacs
}

// writeJSONL writes the spans, one JSON object per line, to
// dir/trace-<workload>.jsonl.
func (r *recorder) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// timingEngine wraps a backend.Engine and records a span around each of
// its four kernels. It forwards every call unchanged, so results are
// bit-identical to the inner engine's.
type timingEngine struct {
	inner backend.Engine
	rec   *recorder
}

// timingMixedEngine adds the optional mixed-precision capability, so the
// wrapper exposes EinsumMixed exactly when the inner engine does and
// never changes which precisions einsumsvd can reach.
type timingMixedEngine struct {
	*timingEngine
	mixed backend.MixedContractor
}

// wrapEngine returns inner behind the timing seam.
func wrapEngine(inner backend.Engine, rec *recorder) backend.Engine {
	te := &timingEngine{inner: inner, rec: rec}
	if mc, ok := inner.(backend.MixedContractor); ok {
		return &timingMixedEngine{timingEngine: te, mixed: mc}
	}
	return te
}

func (e *timingEngine) Name() string { return e.inner.Name() }

func (e *timingEngine) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	t0 := time.Now()
	out := e.inner.Einsum(spec, ops...)
	t1 := time.Now()
	e.rec.leaf(spanEinsum, t0, t1, e.rec.cmacs(spec, ops))
	return out
}

func (e *timingMixedEngine) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	t0 := time.Now()
	out := e.mixed.EinsumMixed(spec, ops...)
	t1 := time.Now()
	e.rec.leaf(spanEinsum, t0, t1, e.rec.cmacs(spec, ops))
	return out
}

func (e *timingEngine) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	t0 := time.Now()
	q, r := e.inner.QRSplit(t, leftAxes)
	e.rec.leaf(spanQRSplit, t0, time.Now(), 0)
	return q, r
}

func (e *timingEngine) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	t0 := time.Now()
	u, s, v := e.inner.TruncSVD(m, rank)
	e.rec.leaf(spanTruncSVD, t0, time.Now(), 0)
	return u, s, v
}

func (e *timingEngine) Orth(x *tensor.Dense) *tensor.Dense {
	t0 := time.Now()
	q := e.inner.Orth(x)
	e.rec.leaf(spanOrth, t0, time.Now(), 0)
	return q
}

// countingStrategy counts Factor calls, the denominator of
// einsumsvd.fallback_ratio. It implements einsumsvd.Forker by forking
// the inner strategy exactly as einsumsvd.Fork would, so the per-task
// random streams — and therefore the results — are those of the bare
// strategy. (einsumsvd.Reseed does not see through it; see the ite_j1j2
// workload.)
type countingStrategy struct {
	inner einsumsvd.Strategy
	calls *atomic.Int64
}

func (c countingStrategy) Name() string { return c.inner.Name() }

func (c countingStrategy) Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, error) {
	c.calls.Add(1)
	return c.inner.Factor(eng, spec, rank, ops...)
}

func (c countingStrategy) Fork(n int) []einsumsvd.Strategy {
	forks := einsumsvd.Fork(c.inner, n)
	for i, f := range forks {
		forks[i] = countingStrategy{inner: f, calls: c.calls}
	}
	return forks
}
