// Package backend abstracts the tensor-computation substrate the PEPS
// algorithms run on, mirroring Koala's tensorbackends layer. Two engines
// are provided: Dense executes everything with the in-process sequential
// kernels (the NumPy analog), and Dist routes the heavy operations
// through the simulated distributed-memory grid (the Cyclops analog),
// with selectable orthogonalization variants that reproduce the
// qr-svd / local-gram-qr / local-gram-qr-svd algorithm family benchmarked
// in paper Figure 7.
package backend

import (
	"math/rand"

	"gokoala/internal/einsum"
	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// Engine is the set of kernels the tensor-network layer needs. All
// tensors are plain dense tensors; engines differ in how (and at what
// modeled cost) they execute the kernels.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// Einsum contracts a network of dense tensors.
	Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense
	// QRSplit factors tensor t, with its first leftAxes axes as rows,
	// into an isometry Q and a small factor R (paper Algorithm 1 step).
	QRSplit(t *tensor.Dense, leftAxes int) (q, r *tensor.Dense)
	// TruncSVD computes the rank-truncated SVD of a matrix.
	TruncSVD(m *tensor.Dense, rank int) (u *tensor.Dense, s []float64, v *tensor.Dense)
	// Orth orthonormalizes the columns of a tall block vector; used inside
	// randomized SVD (paper Algorithm 4).
	Orth(x *tensor.Dense) *tensor.Dense
}

// Dense is the sequential in-memory engine.
type Dense struct{}

// NewDense returns the sequential engine.
func NewDense() *Dense { return &Dense{} }

func (*Dense) Name() string { return "dense" }

func (*Dense) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return einsum.MustContract(spec, ops...)
}

func (*Dense) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	return linalg.QRSplit(t, leftAxes)
}

func (*Dense) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	return linalg.TruncatedSVD(m, rank)
}

func (*Dense) Orth(x *tensor.Dense) *tensor.Dense { return linalg.OrthQR(x) }

// MixedContractor is an optional Engine capability: contraction with the
// batched GEMMs computed in reduced (complex64) precision. Engines
// without it simply run full precision — callers must treat the mixed
// path as an optimization, never a semantic switch. It powers the
// RandSVD complex64 sketch (einsumsvd.ImplicitRand.Sketch32).
type MixedContractor interface {
	// EinsumMixed contracts like Einsum with complex64 GEMM arithmetic;
	// operands and result stay complex128.
	EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense
}

func (d *Dense) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(nil, spec, ops, d.hooks(true))
}

// contract evaluates spec with an engine's hooks, into dst when that is
// non-nil, panicking on a malformed spec like every Engine.Einsum.
func contract(dst []complex128, spec string, ops []*tensor.Dense, h einsum.Hooks) *tensor.Dense {
	out, err := einsum.ContractInto(dst, spec, ops, h)
	if err != nil {
		panic("backend: " + err.Error())
	}
	return out
}

// IntoContractor is an optional Engine capability: a contraction whose
// result is written into storage the caller supplies and recycles. It
// replays the tape Einsum replays, so an engine without it — any wrapper
// that only forwards the Engine methods — gives the same values bit for
// bit from Einsum and merely allocates them. einsumsvd uses it for the
// operator factors it forms once per factorization.
type IntoContractor interface {
	// EinsumInto contracts like Einsum, storing the result in dst, which
	// must hold at least as many elements as the result has.
	EinsumInto(dst []complex128, spec string, ops ...*tensor.Dense) *tensor.Dense
}

func (d *Dense) EinsumInto(dst []complex128, spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(dst, spec, ops, d.hooks(false))
}

// RandSVD runs the implicit randomized SVD of paper Algorithm 4 using the
// engine's orthogonalization kernel for the orthogonal-iteration steps.
func RandSVD(e Engine, op linalg.Operator, rank int, nIter, oversample int, rng *rand.Rand) (*tensor.Dense, []float64, *tensor.Dense) {
	return linalg.RandSVD(op, rank, linalg.RandSVDOptions{
		NIter:      nIter,
		Oversample: oversample,
		Orth:       e.Orth,
		Rng:        rng,
	})
}

// RandSVDChecked is RandSVD plus the subspace-quality report from a
// deterministic probe (see linalg.RandSVDReport): callers inspect
// rep.Converged to decide whether the sketch resolved the operator well
// enough or an exact fallback is warranted. probeTol <= 0 selects
// health.DefaultSubspaceTol. sketch32 opts the sketch/power-iteration
// stages into complex64 arithmetic for operators that support it (see
// linalg.SketchApplier); the probe runs at full precision either way, so
// a sketch the reduced precision degraded still trips the fallback.
func RandSVDChecked(e Engine, op linalg.Operator, rank int, nIter, oversample int, rng *rand.Rand, probeTol float64, sketch32 bool) (*tensor.Dense, []float64, *tensor.Dense, linalg.Report) {
	return linalg.RandSVDReport(op, rank, linalg.RandSVDOptions{
		NIter:      nIter,
		Oversample: oversample,
		Orth:       e.Orth,
		Rng:        rng,
		Sketch32:   sketch32,
	}, probeTol)
}
