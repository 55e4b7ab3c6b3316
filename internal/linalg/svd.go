package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"sync/atomic"

	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// Truncation observability: every truncated SVD records how much
// spectral weight it discarded (the per-truncation accuracy knob the
// paper's m sweeps trade against time) and how many truncations ran.
var obsSVDCalls = obs.NewCounter("svd.truncations")

// recordTruncation publishes one truncation keeping the first k of the
// descending singular values s. The number stays here, at the
// decomposition it belongs to; a caller that needs it for a lattice bond
// gets it from einsumsvd's return value, not from this series.
func recordTruncation(s []float64, k int) {
	if !obs.Enabled() {
		return
	}
	te := TruncError(s, k)
	obsSVDCalls.Add(1)
	obs.Observe("svd.trunc_error", te)
	obs.ObserveHist("svd.trunc_error_hist", obs.LogBounds, te)
}

// svdFlops is the standard LAPACK-equivalent complex-flop estimate for a
// thin SVD of an m-by-n matrix (GESVD-style, ~14 m n min(m,n) fused
// multiply-adds). The one-sided Jacobi iteration used here performs more
// raw arithmetic than a production bidiagonalization kernel; charging the
// global counter with the standard count keeps cost models and empirical
// complexity fits representative of a production implementation rather
// than of Jacobi's constant factor.
func svdFlops(m, n int) int64 {
	k := int64(min(m, n))
	return 14 * int64(m) * int64(n) * k / 2
}

// SVDFlops exposes the analytic thin-SVD flop count charged by SVD, so
// cost models (backend.Dist) can account a factorization without racing
// on the measured global counter.
func SVDFlops(m, n int) int64 { return svdFlops(m, n) }

// SVD computes the thin singular value decomposition A = U diag(s) V* of
// an m-by-n matrix using the one-sided (Hestenes) Jacobi method,
// preconditioned by a column-pivoted QR above a size cutover (see
// svdJacobi). U is m-by-k, s has length k, and V is n-by-k with
// k = min(m, n). Singular values are returned in descending order.
// One-sided Jacobi computes even the small singular values to high
// relative accuracy, which matters for the truncation decisions in PEPS
// compression.
func SVD(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	u, s, v, _ = SVDReport(a)
	return u, s, v
}

// SVDReport is SVD plus the convergence report of the Jacobi iteration.
// A non-converged report (sweep budget exhausted before every column
// pair met tolerance) is recorded in health.nonconverged; the factors
// are still returned — they are the best available orthogonal set — so
// callers choose between using and rejecting them.
func SVDReport(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("linalg: SVD requires a matrix, got rank %d", a.Rank()))
	}
	tensor.AddFlops(svdFlops(a.Dim(0), a.Dim(1)))
	u, s, v, rep = svdJacobi(a, min(a.Dim(0), a.Dim(1)) >= svdPrecondMinCols)
	if !rep.Converged {
		health.CountNonconverged("linalg.svd")
	}
	obs.ObserveHist("solver.sweeps", obs.Pow2Bounds, float64(rep.Sweeps),
		obs.Label{Key: "solver", Value: "jacobi_svd"})
	return u, s, v, rep
}

// eps is the float64 unit roundoff 2^-52: a column whose norm is below
// eps times the largest one is a numerical zero to the Jacobi iteration.
const eps = 2.220446049250313e-16

// svdPrecondMinCols is the cutover of svdJacobi: a matrix whose shorter
// side is at least this long is preconditioned by a pivoted QR, a
// smaller one is rotated directly. Read from the table in
// BenchmarkSVDPrecondCutover's comment (the QR costs more than the sweeps
// it saves on the 8x8 and 8x16 blocks of a two-site update), which also
// records the end-to-end reason the plain path exists at all: with the
// blocks below 8 columns preconditioned, the benchmark's ite_j1j2
// prepares a state on which its accuracy_digits falls 20%. Rerun that
// benchmark after touching either path.
const svdPrecondMinCols = 16

// svdJacobi is the worker behind SVD. With B = A for m >= n and B = A*
// otherwise (SVD(A) from SVD(A*): A = U S V*  <=>  A* = V S U*), B is
// M-by-N and tall, and one of two paths factors it:
//
//   - plain: rotate the N length-M columns of B until they are mutually
//     orthogonal, B J = X. Their norms are the singular values, the
//     normalized columns the left vectors, J the right vectors.
//   - preconditioned (Drmac-Veselic): B P = Q R by column-pivoted
//     Householder QR, then the same iteration on the N length-N columns
//     of R*, R* W = X. Then B = (Q W) S (P X S^-1)*: the left vectors
//     are orthonormal by construction (a product of reflectors and
//     rotations, whatever the rank), the sweeps run on short columns,
//     and there are fewer of them because the rows of a pivoted R are
//     already graded and nearly orthogonal.
func svdJacobi(a *tensor.Dense, precond bool) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	m, n := a.Dim(0), a.Dim(1)
	wide := m < n
	bm, bn := m, n
	if wide {
		bm, bn = n, m
	}
	ad := a.Data()

	// x holds the bn columns being orthogonalized (length l each), w the
	// rotations accumulated on the identity (length bn each).
	left, right := tensor.New(bm, bn), tensor.New(bn, bn)
	var h householder // of the preconditioning QR
	l := bm
	if precond {
		l = bn
	}
	ws := getWorkspace()
	defer ws.release()
	slab := ws.c.take(bn*l + bn*bn)
	x, w := slab[:bn*l], slab[bn*l:]
	clear(w)
	if precond {
		// The left factor's buffer is the QR working copy until R is out.
		b := left.Data()
		if wide {
			for i := 0; i < bm; i++ {
				for j := 0; j < bn; j++ {
					b[i*bn+j] = cmplx.Conj(ad[j*n+i])
				}
			}
		} else {
			copy(b, ad)
		}
		h = newHouseholder(ws, b, bm, bn)
		h.factor(ws, true)
		// Column j of R* is the conjugated row j of R.
		clear(x)
		for j := 0; j < bn; j++ {
			for i := j; i < bn; i++ {
				x[j*bn+i] = cmplx.Conj(b[j*bn+i])
			}
		}
		clear(b)
	} else {
		for j := 0; j < bn; j++ {
			col := x[j*bm : (j+1)*bm]
			for i := range col {
				if wide {
					col[i] = cmplx.Conj(ad[j*n+i])
				} else {
					col[i] = ad[i*n+j]
				}
			}
		}
	}
	for j := 0; j < bn; j++ {
		w[j*bn+j] = 1
	}

	rep = jacobiCols(ws, x, l, w, bn)

	// Singular values are the column norms; sort descending.
	norms := ws.f.take(bn)
	order := ws.n.take(bn)
	for j := range order {
		order[j] = j
		norms[j] = norm2(x[j*l : (j+1)*l])
	}
	sort.Slice(order, func(i, j int) bool { return norms[order[i]] > norms[order[j]] })
	s = make([]float64, bn)
	for c, j := range order {
		s[c] = norms[j]
	}

	if !precond {
		writeUnitCols(left.Data(), bn, x, l, s, order, nil)
		writeCols(right.Data(), bn, w, order)
	} else {
		writeCols(left.Data(), bn, w, order) // [W; 0], then Q from the left
		h.applyQ(left.Data(), bn, false)
		writeUnitCols(right.Data(), bn, x, l, s, order, h.perm)
	}
	if wide {
		return right, s, left, rep
	}
	return left, s, right, rep
}

// jacobiCols makes the n columns of x (column j is x[j*l:(j+1)*l])
// mutually orthogonal by one-sided Jacobi rotations and applies the same
// rotations to the n length-n columns of w.
func jacobiCols(ws *workspace, x []complex128, l int, w []complex128, n int) (rep Report) {
	const tol = 1e-14
	// Round-robin tournament (circle method) pair ordering: each of the
	// nc-1 rounds in a sweep pairs every column exactly once, so the
	// nc/2 rotations of a round touch pairwise-disjoint columns and run
	// concurrently on the worker pool. The schedule is fixed before the
	// sweep starts, so the result is bit-identical for any worker count.
	nc := n
	if nc%2 == 1 {
		nc++ // odd column count: one slot sits out each round
	}
	pos := ws.n.take(nc)
	for i := range pos {
		pos[i] = i
	}
	grain := int(65536/int64(7*l)) + 1
	// Cached squared column norms, refreshed by every Gram evaluation and
	// updated by every rotation (see rotatedNormSq), so a below-floor pair
	// can be dismissed without reading its columns. An entry is never more
	// than one rotation away from a computed value.
	normSqs := ws.f.take(n)
	for j := range normSqs {
		normSqs[j] = normSq(x[j*l : (j+1)*l])
	}
	// moved[j] is the round (counted from 1 across sweeps) of column j's
	// last rotation. A pairing recurs every nc-1 rounds; if neither column
	// has moved since the pair last met, its Gram triple is what it was
	// when it passed the test then, and it passes again unread.
	moved := ws.n.take(n)
	clear(moved)
	// Columns with norm below eps times the largest column norm carry
	// singular values beneath float64 relative accuracy; their partially
	// underflowed Gram entries are inconsistent (the computed correlation
	// can exceed 1), so rotating against them churns forever without
	// converging. Treat them as numerical zeros: skip their rotations and
	// exclude them from the residual scan. The floor is refreshed each
	// sweep because rotations grow the largest column toward sigma_max,
	// and never lowered, so a column once dismissed stays dismissed;
	// writeUnitCols replaces such a column (same eps) instead of scaling it.
	var floor float64
	var round int
	var rotated atomic.Bool
	pairs := func(lo, hi int) {
		lastMet := round - (nc - 1)
		for k := lo; k < hi; k++ {
			p, q := pos[k], pos[nc-1-k]
			if p >= n || q >= n {
				continue // the padded slot of an odd tournament
			}
			if p > q {
				p, q = q, p
			}
			if normSqs[p] <= floor || normSqs[q] <= floor ||
				(moved[p] < lastMet && moved[q] < lastMet) {
				continue
			}
			xp, xq := x[p*l:(p+1)*l], x[q*l:(q+1)*l]
			alpha, beta, gamma := tensor.ColGram(xp, xq)
			normSqs[p], normSqs[q] = alpha, beta
			g := cmplx.Abs(gamma)
			if alpha <= floor || beta <= floor || g <= tol*math.Sqrt(alpha)*math.Sqrt(beta) {
				continue
			}
			rotated.Store(true)
			c, sn, phase := jacobiRotation(alpha, beta, gamma)
			tensor.JacobiRotate(xp, xq, c, sn, phase)
			tensor.JacobiRotate(w[p*n:(p+1)*n], w[q*n:(q+1)*n], c, sn, phase)
			moved[p], moved[q] = round, round
			t := sn / c * g
			normSqs[p], normSqs[q] = rotatedNormSq(alpha, -t, xp), rotatedNormSq(beta, t, xq)
		}
	}
	rotated.Store(true) // n <= 1 never sweeps yet is trivially converged
	for rep.Sweeps = 0; rep.Sweeps < maxJacobiSweeps; rep.Sweeps++ {
		rotated.Store(false)
		for _, a := range normSqs {
			floor = math.Max(floor, eps*eps*a)
		}
		for r := 0; r < nc-1; r++ {
			round++
			pool.For(nc/2, grain, pairs)
			// Advance the circle: slot 0 stays, the rest shift one step.
			last := pos[nc-1]
			copy(pos[2:], pos[1:nc-1])
			pos[1] = last
		}
		if !rotated.Load() {
			break
		}
	}
	// Converged iff a full sweep finished without any rotation. When the
	// sweep budget ran out, measure how far from orthogonal the columns
	// still are: the largest |<p,q>| / (||p|| ||q||) over column pairs
	// (the quantity each rotation drives below tol). This scan is O(n^2 l)
	// but only runs on the rare non-converged exit.
	rep.Converged = !rotated.Load()
	if !rep.Converged {
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				alpha, beta, gamma := tensor.ColGram(x[p*l:(p+1)*l], x[q*l:(q+1)*l])
				if alpha > floor && beta > floor {
					if r := cmplx.Abs(gamma) / (math.Sqrt(alpha) * math.Sqrt(beta)); r > rep.Residual {
						rep.Residual = r
					}
				}
			}
		}
	}
	return rep
}

// rotatedNormSq is the squared norm of the column col after a rotation
// changed it from prev by d (exactly, in exact arithmetic). The sum
// carries an absolute error of order eps*prev, so when the rotation
// removed all but sqrt(eps) of the column (two near-parallel columns, a
// singular value gap of four decades) what is left of it is noise, down
// to zero or negative, and the norm is recomputed from the column
// instead: the cache decides which columns are numerical zeros, and must
// not lose one that is merely small.
func rotatedNormSq(prev, d float64, col []complex128) float64 {
	const sqrtEps = 1.4901161193847656e-08
	if r := prev + d; r > sqrtEps*prev {
		return r
	}
	return normSq(col)
}

// writeCols stores column order[c] of w (n columns of length n) as
// column c of the row-major matrix d, whose rows are k wide.
func writeCols(d []complex128, k int, w []complex128, order []int) {
	n := len(order)
	for c, j := range order {
		for i, v := range w[j*n : (j+1)*n] {
			d[i*k+c] = v
		}
	}
}

// writeUnitCols stores column order[c] of x (length l), scaled to unit
// norm by 1/s[c], as column c of the row-major l-by-k matrix d; entry i
// lands in row rowOf[i] (row i when rowOf is nil). A numerically zero
// singular value has no direction of its own: its column is completed
// with a unit vector orthogonal to the columns before it.
func writeUnitCols(d []complex128, k int, x []complex128, l int, s []float64, order, rowOf []int) {
	var cand []complex128
	for c, j := range order {
		if s[c] > 1e-300 && s[c] > eps*s[0] {
			inv := complex(1/s[c], 0)
			for i, v := range x[j*l : (j+1)*l] {
				if rowOf != nil {
					i = rowOf[i]
				}
				d[i*k+c] = v * inv
			}
			continue
		}
		if cand == nil {
			cand = make([]complex128, l)
		}
		fillOrthoColumn(d, l, k, c, cand)
	}
}

// fillOrthoColumn writes into column col of the row-major m-by-k matrix d
// a unit vector orthogonal to columns 0..col-1 (deterministic
// Gram-Schmidt over coordinate vectors), using cand (length m) as its
// trial vector.
func fillOrthoColumn(d []complex128, m, k, col int, cand []complex128) {
	project := func() float64 {
		for c := 0; c < col; c++ {
			var dot complex128
			for i := 0; i < m; i++ {
				dot += cmplx.Conj(d[i*k+c]) * cand[i]
			}
			for i := 0; i < m; i++ {
				cand[i] -= dot * d[i*k+c]
			}
		}
		return norm2(cand)
	}
	for trial := 0; trial < m; trial++ {
		// candidate basis vector e_trial
		clear(cand)
		cand[trial] = 1
		nn := project()
		if nn <= 1e-6 {
			continue
		}
		// A projection that removed most of the vector leaves it orthogonal
		// only to eps/nn; a second pass restores working accuracy.
		if nn < 0.7 {
			nn = project()
		}
		inv := complex(1/nn, 0)
		for i := 0; i < m; i++ {
			d[i*k+col] = cand[i] * inv
		}
		return
	}
	// Unreachable for col < m, but leave the column zero rather than panic.
}

// TruncatedSVD computes the best rank-r approximation factors of A:
// U (m-by-r), s (length r), V (n-by-r) with r = min(rank, min(m, n)).
// Where the singular values should be attached is the caller's choice
// (see einsumsvd.SigmaMode for the conventions the PEPS layer uses).
func TruncatedSVD(a *tensor.Dense, rank int) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	uf, sf, vf := SVD(a)
	k := min(rank, len(sf))
	if k <= 0 {
		panic(fmt.Sprintf("linalg: TruncatedSVD rank %d invalid", rank))
	}
	recordTruncation(sf, k)
	return sliceCols(uf, k), sf[:k], sliceCols(vf, k)
}

// sliceCols returns the first k columns of a row-major matrix.
func sliceCols(a *tensor.Dense, k int) *tensor.Dense {
	m, n := a.Dim(0), a.Dim(1)
	if k == n {
		return a
	}
	out := tensor.New(m, k)
	ad, od := a.Data(), out.Data()
	for i := 0; i < m; i++ {
		copy(od[i*k:(i+1)*k], ad[i*n:i*n+k])
	}
	return out
}

// TruncError returns the relative Frobenius truncation error implied by
// keeping the first k of the given (descending) singular values.
func TruncError(s []float64, k int) float64 {
	var kept, all float64
	for i, x := range s {
		all += x * x
		if i < k {
			kept += x * x
		}
	}
	if all == 0 {
		return 0
	}
	return math.Sqrt((all - kept) / all)
}
