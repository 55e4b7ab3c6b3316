package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gokoala/internal/health"
	"gokoala/internal/tensor"
)

// Operator is a linear map C^n -> C^m given only through its action on
// block vectors. It is the "implicit matrix" of the paper's Algorithm 4:
// tensor networks implement it by contracting the block vector into the
// network instead of ever forming the matrix.
type Operator interface {
	// Rows returns m, the (flattened) output dimension.
	Rows() int
	// Cols returns n, the (flattened) input dimension.
	Cols() int
	// Apply returns A @ q for q of shape [n, r]; result shape [m, r].
	Apply(q *tensor.Dense) *tensor.Dense
	// ApplyAdjoint returns A* @ p for p of shape [m, r]; result [n, r].
	ApplyAdjoint(p *tensor.Dense) *tensor.Dense
}

// SketchApplier is an optional Operator capability: reduced-precision
// application for the sketch/power-iteration stages of RandSVD. The
// sketch only has to span the dominant subspace, not reproduce entries,
// so implementations may compute in complex64 (convert-in/convert-out at
// the kernel boundary); RandSVD never uses them for the probe or the
// final projection, which stay full precision, and the deterministic
// subspace probe catches a sketch the reduced precision degraded.
type SketchApplier interface {
	// ApplySketch is Apply, allowed to compute in reduced precision.
	ApplySketch(q *tensor.Dense) *tensor.Dense
	// ApplyAdjointSketch is ApplyAdjoint, allowed to compute in reduced
	// precision.
	ApplyAdjointSketch(p *tensor.Dense) *tensor.Dense
}

// MatrixOperator adapts an explicit matrix to the Operator interface,
// used for testing and for the explicit einsumsvd path.
type MatrixOperator struct{ M *tensor.Dense }

func (o MatrixOperator) Rows() int { return o.M.Dim(0) }
func (o MatrixOperator) Cols() int { return o.M.Dim(1) }
func (o MatrixOperator) Apply(q *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(o.M, q)
}
func (o MatrixOperator) ApplyAdjoint(p *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(o.M.Conj().Transpose(1, 0), p)
}
func (o MatrixOperator) ApplySketch(q *tensor.Dense) *tensor.Dense {
	return tensor.MatMulMixed(o.M, q)
}
func (o MatrixOperator) ApplyAdjointSketch(p *tensor.Dense) *tensor.Dense {
	return tensor.MatMulMixed(o.M.Conj().Transpose(1, 0), p)
}

var _ SketchApplier = MatrixOperator{}

// OrthFunc orthonormalizes the columns of an m-by-r block vector,
// returning a matrix with the same span and orthonormal columns. The two
// implementations are QR (OrthQR) and the reshape-avoiding Gram-matrix
// method of paper Algorithm 5 (OrthGram).
type OrthFunc func(x *tensor.Dense) *tensor.Dense

// OrthQR orthonormalizes via Householder QR.
func OrthQR(x *tensor.Dense) *tensor.Dense {
	q, _ := qr(x, false)
	return q
}

// OrthGram orthonormalizes via the Gram-matrix eigendecomposition of
// Algorithm 5 (see gram.go).
func OrthGram(x *tensor.Dense) *tensor.Dense {
	q, _ := GramOrth(x)
	return q
}

// RandSVDOptions configures RandSVD.
type RandSVDOptions struct {
	// NIter is the number of orthogonal-iteration refinement rounds
	// (the loop in Algorithm 4). 1 is usually sufficient for PEPS
	// truncations; 0 gives the plain range sketch.
	NIter int
	// Oversample adds extra sketch columns that are truncated away at the
	// end, improving the accuracy of the leading rank singular values.
	Oversample int
	// Orth selects the orthogonalization kernel; defaults to OrthQR.
	Orth OrthFunc
	// Rng supplies the random sketch; required.
	Rng *rand.Rand
	// Sketch32 runs the sketch and power-iteration operator applications
	// in reduced (complex64) precision when the operator implements
	// SketchApplier; operators that do not are applied at full precision,
	// so the option degrades to a no-op rather than an error. The probe
	// and the final projection always stay complex128.
	Sketch32 bool
}

// RandSVD approximates the rank-`rank` truncated SVD of the implicitly
// given operator following the paper's Algorithm 4:
//
//	Q <- random n-by-r block; P <- orth(A Q)
//	repeat NIter times: Q <- orth(A* P); P <- orth(A Q)
//	B = P* A  (computed as (A* P)*);  SVD(B) = U~ S V*;  U = P U~
//
// It returns U (m-by-k), s (length k), V (n-by-k) with
// k = min(rank, m, n). The operator is never materialized.
func RandSVD(op Operator, rank int, opts RandSVDOptions) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	u, s, v, _ = randSVD(op, rank, opts, false, 0)
	return u, s, v
}

// RandSVDReport is RandSVD plus a subspace-quality report. After the
// sketch basis P is built, a fixed block of probe vectors w (drawn from a
// seed derived only from the problem dimensions, never from opts.Rng, so
// existing random streams are unshifted) is pushed through the operator
// and the relative energy outside the sketch,
//
//	resid = ||(I - P P*) A w||_F / ||A w||_F,
//
// is measured. A healthy rank-k truncation leaves resid near the
// discarded spectral weight; a sketch that missed a dominant subspace
// shows resid of order one. The report is Converged when resid <= tol
// (tol <= 0 selects health.DefaultSubspaceTol).
func RandSVDReport(op Operator, rank int, opts RandSVDOptions, tol float64) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	return randSVD(op, rank, opts, true, tol)
}

// SketchWidth is the number of sketch columns RandSVD draws for a
// rank-`rank` factorization of an m-by-n operator: the rank, capped by
// the operator, plus the oversampling, capped again. Operators that plan
// their applications ahead (einsumsvd's) size them with it.
func SketchWidth(rank, oversample, m, n int) int {
	small := min(m, n)
	return min(min(rank, small)+oversample, small)
}

// ProbeColumns is the width of the probe block in RandSVDReport: two
// independent Gaussian probes make the odds of both being near-orthogonal
// to a missed dominant direction negligible, at the cost of one extra
// operator application of that width (which an operator that plans its
// applications, einsumsvd's, has to count).
const ProbeColumns = 2

func randSVD(op Operator, rank int, opts RandSVDOptions, probe bool, tol float64) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	if opts.Rng == nil {
		panic("linalg: RandSVD requires RandSVDOptions.Rng")
	}
	orth := opts.Orth
	if orth == nil {
		orth = OrthQR
	}
	m, n := op.Rows(), op.Cols()
	k := min(rank, min(m, n))
	if k <= 0 {
		panic(fmt.Sprintf("linalg: RandSVD rank %d invalid for %d x %d operator", rank, m, n))
	}
	r := SketchWidth(rank, opts.Oversample, m, n)

	apply, applyAdjoint := op.Apply, op.ApplyAdjoint
	if opts.Sketch32 {
		if sa, ok := op.(SketchApplier); ok {
			apply, applyAdjoint = sa.ApplySketch, sa.ApplyAdjointSketch
		}
	}
	q := tensor.Rand(opts.Rng, n, r)
	p := orth(apply(q))
	for i := 0; i < opts.NIter; i++ {
		q = orth(applyAdjoint(p))
		p = orth(apply(q))
	}
	rep.Sweeps = opts.NIter
	rep.Converged = true
	if probe {
		rep.Residual = subspaceResidual(op, p, m, n, k)
		if tol <= 0 {
			tol = health.DefaultSubspaceTol
		}
		rep.Converged = rep.Residual <= tol
	}
	// B = P* A as an r-by-n matrix: (A* P)*.
	b := op.ApplyAdjoint(p).Conj().Transpose(1, 0)
	ub, sb, vb := SVD(b)
	kk := min(k, len(sb))
	u = tensor.MatMul(p, sliceCols(ub, kk))
	return u, sb[:kk], sliceCols(vb, kk), rep
}

// probeBlocks memoizes the probe block of subspaceResidual. The block is
// a constant of the problem dimensions, yet drawing it means seeding a
// math/rand source (a 4.9 KB allocation and ~10 us) — once per
// factorization that was 4-6% of an ITE step. Blocks are read-only once
// published; the map is emptied when it reaches maxProbeBlocks, which a
// simulation's few dozen operator shapes never do.
var (
	probeMu     sync.Mutex
	probeBlocks = map[probeKey]*tensor.Dense{}
)

type probeKey struct{ m, n, k int }

const maxProbeBlocks = 256

// probeBlock returns the n-by-ProbeColumns probe block for an m-by-n
// operator sketched at rank k. Its rng is seeded purely from the problem
// dimensions so the check is deterministic and does not consume the
// caller's random stream.
func probeBlock(m, n, k int) *tensor.Dense {
	key := probeKey{m, n, k}
	probeMu.Lock()
	b, ok := probeBlocks[key]
	probeMu.Unlock()
	if ok {
		return b
	}
	seed := int64(0x1E3779B97F4A7C15) ^ int64(m)<<40 ^ int64(n)<<20 ^ int64(k)
	b = tensor.Rand(rand.New(rand.NewSource(seed)), n, ProbeColumns)
	probeMu.Lock()
	if len(probeBlocks) >= maxProbeBlocks {
		clear(probeBlocks)
	}
	probeBlocks[key] = b
	probeMu.Unlock()
	return b
}

// subspaceResidual measures the relative Frobenius mass of A w outside
// the orthonormal sketch basis p, for the fixed probe block w.
func subspaceResidual(op Operator, p *tensor.Dense, m, n, k int) float64 {
	y := op.Apply(probeBlock(m, n, k))
	// y_in = P (P* y)
	yin := tensor.MatMul(p, tensor.MatMul(p.Conj().Transpose(1, 0), y))
	yd, ind := y.Data(), yin.Data()
	var out, total float64
	for i := range yd {
		d := yd[i] - ind[i]
		out += real(d)*real(d) + imag(d)*imag(d)
		total += real(yd[i])*real(yd[i]) + imag(yd[i])*imag(yd[i])
	}
	if total == 0 {
		return 0
	}
	return math.Sqrt(out / total)
}
