package backend

import (
	"gokoala/internal/einsum"
	"gokoala/internal/linalg"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Threaded is the shared-memory multicore engine, the role
// NumPy-with-MKL-threads plays as the paper's single-node baseline.
// Since the kernel overhaul, parallelism lives in the compute kernels
// themselves: batched GEMMs, materializing transposes, and fused
// scatter GEMMs all split their output rows over the persistent worker
// pool (internal/pool), so contractions run through the same compiled
// einsum plans the sequential engine uses, already parallel.
//
// Workers, when positive, caps the parallelism of this engine's
// contractions: GEMMs are routed through the engine's own partitioned
// kernel, which splits rows with pool.ForMax bounded by Workers. When
// zero, kernels split across the full pool (sized by GOMAXPROCS, or
// pool.SetWorkers). Factorizations stay sequential (as LAPACK's are, at
// these sizes).
type Threaded struct {
	// Workers bounds the worker count for this engine's contractions;
	// 0 means the full worker pool.
	Workers int
}

// NewThreaded returns a threaded engine using the full worker pool.
func NewThreaded() *Threaded { return &Threaded{} }

func (t *Threaded) Name() string { return "threaded" }

// hooks: an explicit Workers cap opts out of the kernels' pool-wide
// splitting and routes GEMMs through the bounded partitioned kernel
// instead. The mixed kernel parallelizes internally over the full pool
// (the cap applies only to the full-precision partitioned kernel; the
// sketch path is opt-in and its row splits cannot change results either
// way).
func (t *Threaded) hooks(mixed bool) einsum.Hooks {
	switch {
	case mixed:
		return einsum.Hooks{GEMM: tensor.BatchMatMulMixed}
	case t.Workers > 0:
		return einsum.Hooks{GEMM: t.batchMatMul}
	}
	return einsum.Hooks{}
}

func (t *Threaded) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(nil, spec, ops, t.hooks(false))
}

// EinsumMixed contracts with complex64 GEMM arithmetic.
func (t *Threaded) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(nil, spec, ops, t.hooks(true))
}

// batchMatMul multiplies [bt, m, k] x [bt, k, n] with at most t.Workers
// chunks. The bounded split lives in the tensor layer
// (BatchMatMulIntoMax) so the kernel decision is made once per batch —
// per-chunk dispatch would let the Workers knob change which kernel
// (and rounding) serves a row. The output buffer counts as obs-tracked
// scratch while the kernel fills it.
func (t *Threaded) batchMatMul(a, b *tensor.Dense) *tensor.Dense {
	bt, m := a.Dim(0), a.Dim(1)
	n := b.Dim(2)
	outBytes := int64(bt) * int64(m) * int64(n) * 16
	obs.TrackBytes(outBytes)
	defer obs.TrackBytes(-outBytes)
	out := tensor.New(bt, m, n)
	tensor.BatchMatMulIntoMax(t.Workers, out, a, b)
	return out
}

func (t *Threaded) QRSplit(a *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	return linalg.QRSplit(a, leftAxes)
}

func (t *Threaded) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	return linalg.TruncatedSVD(m, rank)
}

func (t *Threaded) Orth(x *tensor.Dense) *tensor.Dense { return linalg.OrthQR(x) }
