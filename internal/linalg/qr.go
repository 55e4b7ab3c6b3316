// Package linalg provides the dense complex numerical linear algebra the
// PEPS algorithms are built on: Householder QR, Hermitian eigendecomposition
// by the cyclic Jacobi method, singular value decomposition by Householder
// bidiagonalization and implicit-shift bidiagonal QR (LAPACK GESVD's
// algorithm; one-sided Jacobi below 12 columns), truncated SVD that
// builds only the kept singular vectors, randomized SVD (paper Algorithm 4),
// reshape-avoiding Gram-matrix orthogonalization (paper Algorithm 5),
// Hermitian matrix exponentials for Trotter gates, and a Lanczos
// eigensolver for exact reference ground states.
//
// All routines operate on rank-2 tensors from the tensor package and are
// written from scratch against the stdlib, playing the role LAPACK and
// ScaLAPACK play for the original Koala library.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"

	"gokoala/internal/tensor"
)

// QRFlops is the analytic flop count QR charges for an m-by-n input: each
// of the k = min(m, n) reflectors is applied once to the trailing
// submatrix (2 (m-j) n) and once while accumulating thin Q (2 (m-j) k),
// summing to 2 (n+k) (m k - k(k-1)/2). Exposed so cost models can charge
// a factorization without racing on the measured global counter.
func QRFlops(m, n int) int64 {
	k := int64(min(m, n))
	s := int64(m)*k - k*(k-1)/2
	return 2 * (int64(n) + k) * s
}

// QR computes the thin QR factorization A = Q R of an m-by-n matrix using
// complex Householder reflections. Q is m-by-k with orthonormal columns and
// R is k-by-n upper triangular, where k = min(m, n).
func QR(a *tensor.Dense) (q, r *tensor.Dense) {
	return qr(a, true)
}

// qr is QR; without wantR it returns only Q (r is nil), which is all an
// orthonormalization keeps.
func qr(a *tensor.Dense, wantR bool) (q, r *tensor.Dense) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("linalg: QR requires a matrix, got rank %d", a.Rank()))
	}
	m, n := a.Dim(0), a.Dim(1)
	tensor.AddFlops(QRFlops(m, n))
	ws := getWorkspace()
	defer ws.release()
	work := ws.c.take(m * n)
	copy(work, a.Data())
	h := newHouseholder(ws, work, m, n)
	h.factor()
	k := h.k

	if wantR {
		r = tensor.New(k, n)
		rd := r.Data()
		for i := 0; i < k; i++ {
			copy(rd[i*n+i:(i+1)*n], h.a[i*n+i:(i+1)*n])
		}
	}

	// Build thin Q by applying the reflectors in reverse to the first k
	// columns of the identity.
	q = tensor.New(m, k)
	qd := q.Data()
	for i := 0; i < k; i++ {
		qd[i*k+i] = 1
	}
	h.applyQ(qd, k, true)
	return q, r
}

// householder is one Householder factorization held in place: the
// matrix being reduced (R in its upper triangle once factored), every
// reflector in one slab, and the row workspace of the reflector passes,
// all taken from the factorization's workspace.
type householder struct {
	m, n, k int
	a       []complex128 // m-by-n row-major, overwritten
	v       []complex128 // reflector slab, see vec
	tau     []float64    // 2/||v_j||^2; 0 marks a skipped reflector
	w       []complex128 // v* A row workspace, length n
}

// newHouseholder prepares the factorization of the m-by-n row-major
// matrix a, which factor overwrites.
func newHouseholder(ws *workspace, a []complex128, m, n int) householder {
	k := min(m, n)
	nv := k*m - k*(k-1)/2
	slab := ws.c.take(nv + n)
	tau := ws.f.take(k)
	clear(tau)
	return householder{m: m, n: n, k: k, a: a, v: slab[:nv], w: slab[nv:], tau: tau}
}

// factor reduces h.a to upper-triangular form, H_{k-1} ... H_0 A = R.
func (h *householder) factor() {
	for j := 0; j < h.k; j++ {
		if _, ok := h.reflector(j); ok {
			// The columns left of j are already reduced.
			h.apply(j, h.a, h.n, j)
		}
	}
}

// vec is the slab slot of reflector j, length m-j.
func (h *householder) vec(j int) []complex128 {
	off := j*h.m - j*(j-1)/2
	return h.v[off : off+h.m-j]
}

// apply overwrites rows j.. and columns c0.. of the m-by-cols row-major
// matrix d with H_j = I - tau_j v_j v_j* times that block, in two
// contiguous-row passes.
func (h *householder) apply(j int, d []complex128, cols, c0 int) {
	v, blk, w := h.vec(j), d[j*cols+c0:], h.w[:cols-c0]
	tensor.ReflectorProject(w, blk, cols, v)
	tensor.ReflectorUpdate(blk, cols, v, w, h.tau[j])
}

// reflector builds the Householder vector that zeroes a[j+1:m, j] into
// its slab slot and records tau, returning the entry beta the reflector
// leaves at a[j, j]; it reports false (tau stays 0) for a column too
// small to reflect.
func (h *householder) reflector(j int) (beta complex128, ok bool) {
	v := h.vec(j)
	for i := range v {
		v[i] = h.a[(j+i)*h.n+j]
	}
	h.tau[j], beta = house(v)
	return beta, h.tau[j] != 0
}

// house turns x in place into the vector v of the Householder reflector
// H = I - tau v v* with H x = beta e_1 and returns tau and beta. A vector
// too small to reflect is left as it is, with tau = 0 (H = I) and
// beta = x[0].
func house(x []complex128) (tau float64, beta complex128) {
	x0 := x[0]
	maxAbs := 0.0
	for _, xi := range x {
		if a := cmplx.Abs(xi); a > maxAbs {
			maxAbs = a
		}
	}
	// The Householder reflector H = I - tau v v* is invariant under
	// scaling of v, so build it from the vector scaled to O(1). This
	// keeps ||v||^2 out of the subnormal range where 2/||v||^2 would
	// overflow (columns with entries ~1e-160 occur in near-rank-
	// deficient PEPS carries). Vectors too tiny to scale safely are
	// treated as zero: the reflector is skipped, leaving only
	// negligible residue below beta.
	if maxAbs < 1e-290 {
		return 0, x0
	}
	invScale := complex(1/maxAbs, 0)
	for i := range x {
		x[i] *= invScale
	}
	nx := norm2(x)
	if nx == 0 {
		return 0, x0
	}
	phase := complex(1, 0)
	if x[0] != 0 {
		phase = x[0] / complex(cmplx.Abs(x[0]), 0)
	}
	x[0] += phase * complex(nx, 0)
	nv2 := normSq(x)
	if nv2 == 0 {
		return 0, x0
	}
	return 2 / nv2, -phase * complex(nx*maxAbs, 0)
}

// applyQ overwrites the m-by-cols row-major matrix d with Q d, where
// Q = H_0 ... H_{k-1} is the full m-by-m orthogonal factor. With
// identity set, d holds leading columns of the identity on entry (the
// thin-Q build): reflector j then only reaches columns >= j, the rest
// of rows j.. still being zero.
func (h *householder) applyQ(d []complex128, cols int, identity bool) {
	for j := h.k - 1; j >= 0; j-- {
		if h.tau[j] == 0 {
			continue
		}
		c0 := 0
		if identity {
			c0 = j
		}
		h.apply(j, d, cols, c0)
	}
}

func norm2(v []complex128) float64 { return math.Sqrt(normSq(v)) }

func normSq(v []complex128) float64 {
	var s float64
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return s
}

// QRSplit matricizes tensor t with its first leftAxes axes as rows and the
// rest as columns, computes the thin QR, and folds the factors back:
// Q has shape leftShape + [k], R has shape [k] + rightShape.
// This is the tensor-level QR used by the QR-SVD update (paper Alg. 1).
func QRSplit(t *tensor.Dense, leftAxes int) (q, r *tensor.Dense) {
	shape := t.Shape()
	if leftAxes <= 0 || leftAxes >= len(shape) {
		panic(fmt.Sprintf("linalg: QRSplit leftAxes %d out of range for rank %d", leftAxes, len(shape)))
	}
	rows, cols := 1, 1
	for i, d := range shape {
		if i < leftAxes {
			rows *= d
		} else {
			cols *= d
		}
	}
	qm, rm := QR(t.Reshape(rows, cols))
	k := qm.Dim(1)
	qShape := append(append([]int{}, shape[:leftAxes]...), k)
	rShape := append([]int{k}, shape[leftAxes:]...)
	return qm.Reshape(qShape...), rm.Reshape(rShape...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
