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
// multiply-adds). From svdBidiagMinCols columns up SVD runs GESVD's own
// algorithm, which does less than this when it keeps few vectors; the
// one-sided Jacobi below the cutover does more. Charging the global
// counter with the standard count keeps cost models and empirical
// complexity fits independent of the path and of how many vectors a
// caller keeps.
func svdFlops(m, n int) int64 {
	k := int64(min(m, n))
	return 14 * int64(m) * int64(n) * k / 2
}

// SVDFlops exposes the analytic thin-SVD flop count charged by SVD, so
// cost models (backend.Dist) can account a factorization without racing
// on the measured global counter.
func SVDFlops(m, n int) int64 { return svdFlops(m, n) }

// SVD computes the thin singular value decomposition A = U diag(s) V* of
// an m-by-n matrix. U is m-by-k, s has length k, and V is n-by-k with
// k = min(m, n); singular values are returned in descending order. From
// svdBidiagMinCols columns up it is Householder bidiagonalization plus
// implicit-shift bidiagonal QR (svdBidiag), accurate to eps*sigma_max
// like LAPACK's GESVD; below, one-sided Jacobi (svdJacobi), which is
// also accurate relative to each tiny value. No caller needs the latter:
// every truncation keeps a rank its caller gives, and discarded weight
// is measured against the whole norm.
func SVD(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	u, s, v, _ = SVDReport(a)
	return u, s, v
}

// SVDReport is SVD plus the convergence report of the iteration (Jacobi
// sweeps or bidiagonal QR sweeps). A non-converged report (budget
// exhausted first) is recorded in health.nonconverged; the factors are
// still returned — they are orthonormal whether or not the iteration
// finished — so callers choose between using and rejecting them.
func SVDReport(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	return svdReport(a, math.MaxInt) // every pair
}

// svdReport is SVDReport keeping only the first min(rank, m, n) pairs of
// singular vectors; s holds all min(m, n) values. Only the plain Jacobi
// path builds the others (and drops them here).
func svdReport(a *tensor.Dense, rank int) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("linalg: SVD requires a matrix, got rank %d", a.Rank()))
	}
	m, n := a.Dim(0), a.Dim(1)
	tensor.AddFlops(svdFlops(m, n))
	k := min(rank, min(m, n))
	solver := "bidiag_qr"
	if min(m, n) < svdBidiagMinCols {
		u, s, v, rep = svdJacobi(a)
		u, v = sliceCols(u, k), sliceCols(v, k)
		solver = "jacobi_svd"
	} else {
		u, s, v, rep = svdBidiag(a, k)
	}
	if !rep.Converged {
		health.CountNonconverged("linalg.svd")
	}
	obs.ObserveHist("solver.sweeps", obs.Pow2Bounds, float64(rep.Sweeps),
		obs.Label{Key: "solver", Value: solver})
	return u, s, v, rep
}

// eps is the float64 unit roundoff 2^-52: a column whose norm is below
// eps times the largest one is a numerical zero to the Jacobi iteration,
// and an entry below eps times the largest one is negligible to the
// bidiagonal QR.
const eps = 2.220446049250313e-16

// svdBidiagMinCols is the cutover of svdReport: a matrix whose shorter
// side is at least this long is factored by svdBidiag, a smaller one by
// plain one-sided Jacobi. svdBidiag is faster from the smallest size in
// BenchmarkSVDCutover's table up; the comment there records why the
// blocks of at most 8 columns stay on Jacobi all the same (the
// benchmark's ite_j1j2 prepares its state with them, and its
// accuracy_digits moves with the null vectors an SVD fills in where
// sigma vanishes), which puts the cutover at the next measured size.
// Rerun that benchmark after touching either path.
const svdBidiagMinCols = 12

// svdJacobi is the one-sided (Hestenes) Jacobi SVD that serves the
// matrices below svdBidiagMinCols. With B = A for m >= n and B = A*
// otherwise (SVD(A) from SVD(A*): A = U S V*  <=>  A* = V S U*), B is
// M-by-N and tall; its N length-M columns are rotated until they are
// mutually orthogonal, B J = X. Their norms are the singular values, the
// normalized columns the left vectors, J the right vectors. One-sided
// Jacobi computes even tiny singular values to high relative accuracy
// (Demmel-Veselic: eps times the condition number of B with unit
// columns, however the columns are graded). It works at any size; the
// tests use it as the reference for svdBidiag.
func svdJacobi(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	m, n := a.Dim(0), a.Dim(1)
	wide := m < n
	bm, bn := m, n
	if wide {
		bm, bn = n, m
	}
	ad := a.Data()

	// x holds the bn columns being orthogonalized (length bm each), w the
	// rotations accumulated on the identity (length bn each).
	left, right := tensor.New(bm, bn), tensor.New(bn, bn)
	ws := getWorkspace()
	defer ws.release()
	slab := ws.c.take(bn*bm + bn*bn)
	x, w := slab[:bn*bm], slab[bn*bm:]
	clear(w)
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
	for j := 0; j < bn; j++ {
		w[j*bn+j] = 1
	}

	rep = jacobiCols(ws, x, bm, w, bn)

	// Singular values are the column norms; sort descending.
	norms := ws.f.take(bn)
	order := ws.n.take(bn)
	for j := range order {
		order[j] = j
		norms[j] = norm2(x[j*bm : (j+1)*bm])
	}
	sort.Slice(order, func(i, j int) bool { return norms[order[i]] > norms[order[j]] })
	s = make([]float64, bn)
	for c, j := range order {
		s[c] = norms[j]
	}

	writeUnitCols(left.Data(), bn, x, bm, s, order)
	writeCols(right.Data(), bn, w, order)
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
// norm by 1/s[c], as column c of the row-major l-by-k matrix d. A
// numerically zero singular value has no direction of its own: its
// column is completed with a unit vector orthogonal to the columns
// before it.
func writeUnitCols(d []complex128, k int, x []complex128, l int, s []float64, order []int) {
	var cand []complex128
	for c, j := range order {
		if s[c] > 1e-300 && s[c] > eps*s[0] {
			inv := complex(1/s[c], 0)
			for i, v := range x[j*l : (j+1)*l] {
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

// svdBidiag is the SVD above the cutover: LAPACK GESVD's algorithm,
// built to return only the first k pairs of singular vectors. With B the
// tall orientation of A (M-by-N, as in svdJacobi) it works in three
// steps.
//
//  1. Bidiagonalize. When M >= 2N a QR comes first, B = Q_0 R, and the
//     rest works on the N-by-N R. Householder reflectors from both sides
//     then give H* B G = [P D Q*; 0], with unit-modulus diagonal phases
//     P, Q and D real upper bidiagonal (bidiagonalize).
//  2. Values first. Implicit-shift QR on D's two diagonals alone brings
//     D to diagonal form, D = X S Y^T, and logs every Givens rotation it
//     applies in place of accumulating X and Y (bidiagQR).
//  3. Kept vectors only. Each log is replayed backwards onto the k unit
//     vectors that select the kept values, an N-by-k block, at O(k) per
//     rotation where accumulating X or Y costs O(N); the block is then
//     carried back through phases and reflectors: U = Q_0 H [P X_k; 0],
//     V = G Q Y_k.
//
// U and V are products of reflectors, rotations and phases applied to
// unit vectors, so they are orthonormal whatever the rank and whether or
// not the iteration converged; nothing completes them by Gram-Schmidt.
// The values are accurate to a small multiple of eps*sigma_max — the
// bidiagonalization perturbs B by that much — not relatively.
func svdBidiag(a *tensor.Dense, k int) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	m, n := a.Dim(0), a.Dim(1)
	wide := m < n
	bm, bn := m, n
	if wide {
		bm, bn = n, m
	}
	ws := getWorkspace()
	defer ws.release()
	b := ws.c.take(bm * bn)
	ad := a.Data()
	if wide {
		for i := 0; i < bm; i++ {
			for j := 0; j < bn; j++ {
				b[i*bn+j] = cmplx.Conj(ad[j*n+i])
			}
		}
	} else {
		copy(b, ad)
	}
	var qr householder // the zero value applies as the identity
	rows := bm
	if bm >= 2*bn {
		qr = newHouseholder(ws, b, bm, bn)
		qr.factor()
		// R is the upper triangle of the first bn rows; below it is
		// rounding residue of the reflections.
		for i := 1; i < bn; i++ {
			clear(b[i*bn : i*bn+i])
		}
		rows = bn
	}
	bd := bidiagonalize(ws, b[:rows*bn], rows, bn)
	xlog, ylog := newRotLog(ws, bn), newRotLog(ws, bn)
	rep = bidiagQR(bd.d, bd.e, &xlog, &ylog)

	// The values are |d|, sorted descending (stable, by insertion); a
	// negative d moves its sign into its right vector.
	order := ws.n.take(bn)
	for i := range order {
		j, x := i, math.Abs(bd.d[i])
		for ; j > 0 && math.Abs(bd.d[order[j-1]]) < x; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	s = make([]float64, bn)
	for c, j := range order {
		s[c] = math.Abs(bd.d[j])
	}

	left, right := tensor.New(bm, k), tensor.New(bn, k)
	x := ws.f.take(bn * k)
	ld, rd := left.Data(), right.Data()
	xlog.replay(x, k, order, nil)
	for i := 0; i < bn; i++ {
		for c := 0; c < k; c++ {
			ld[i*k+c] = bd.p[i] * complex(x[i*k+c], 0)
		}
	}
	bd.left.applyQ(ld, k, false)
	qr.applyQ(ld, k, false)
	ylog.replay(x, k, order, bd.d)
	for i := 0; i < bn; i++ {
		for c := 0; c < k; c++ {
			rd[i*k+c] = bd.q[i] * complex(x[i*k+c], 0)
		}
	}
	bd.right.applyQ(rd[k:], k, false)
	if wide {
		return right, s, left, rep
	}
	return left, s, right, rep
}

// bidiagonal is an m-by-n matrix (m >= n) reduced by Householder
// reflectors from both sides,
//
//	A = H [P D Q*; 0] G*,  H = H_0 ... H_{n-1},  G = G_0 ... G_{n-3},
//
// with P, Q unit-modulus diagonal (p, q) and D real upper bidiagonal
// with diagonal d and superdiagonal e.
type bidiagonal struct {
	// left holds H_j, built from column j of A. right holds G_j, which
	// acts on coordinates j+1..n-1: it is reflector j of a factorization
	// of n-1 rows that has vectors and taus but no matrix, so applyQ on
	// rows 1.. of an n-row block applies G.
	left, right householder
	d, e        []float64
	p, q        []complex128
}

// bidiagonalize reduces the m-by-n row-major matrix a (m >= n) in place.
// Step j reflects column j from the left, then row j (beyond the
// superdiagonal) from the right; the right reflector reaches the rows
// below as one ColGram dot per row and one ReflectorUpdate.
func bidiagonalize(ws *workspace, a []complex128, m, n int) bidiagonal {
	bd := bidiagonal{
		left:  newHouseholder(ws, a, m, n),
		right: newHouseholder(ws, nil, n-1, n),
		d:     ws.f.take(n),
		e:     ws.f.take(max(n-1, 0)),
	}
	scratch := ws.c.take(5*n + m)
	dc, ec, row, dots := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[5*n:]
	bd.p, bd.q = scratch[3*n:4*n], scratch[4*n:5*n]
	for j := 0; j < n; j++ {
		dc[j] = a[j*n+j]
		if j < m-1 {
			var ok bool
			if dc[j], ok = bd.left.reflector(j); ok {
				bd.left.apply(j, a, n, j+1)
			}
		}
		switch {
		case j == n-2:
			ec[j] = a[j*n+j+1]
		case j < n-2:
			u := row[:n-1-j]
			copy(u, a[j*n+j+1:(j+1)*n])
			var tau float64
			if tau, ec[j] = house(u); tau == 0 {
				continue
			}
			// u is the conjugate of G_j's vector v: r G_j = r - tau (r v) u
			// for a row r, and r v is ColGram's u* r.
			bd.right.tau[j] = tau
			v := bd.right.vec(j)
			for i, x := range u {
				v[i] = cmplx.Conj(x)
			}
			below := dots[:m-1-j]
			for i := range below {
				r := a[(j+1+i)*n+j+1 : (j+2+i)*n]
				_, _, below[i] = tensor.ColGram(u, r)
			}
			tensor.ReflectorUpdate(a[(j+1)*n+j+1:], n, below, u, tau)
		}
	}
	// D = P* C Q with C the complex bidiagonal (dc, ec): q_0 = 1, and
	// each phase is chosen to make the next entry real and non-negative.
	q := complex(1, 0)
	for j := 0; j < n; j++ {
		bd.q[j] = q
		p := unitPhase(dc[j]*q, q)
		bd.p[j] = p
		bd.d[j] = cmplx.Abs(dc[j])
		if j < n-1 {
			bd.e[j] = cmplx.Abs(ec[j])
			q = unitPhase(p*cmplx.Conj(ec[j]), p)
		}
	}
	return bd
}

// unitPhase returns z/|z|, or fallback for z = 0.
func unitPhase(z, fallback complex128) complex128 {
	if z == 0 {
		return fallback
	}
	return z / complex(cmplx.Abs(z), 0)
}

// bidiagIterCap bounds the inner steps of bidiagQR on an n-by-n
// bidiagonal: xBDSQR's MAXITR*n^2 with MAXITR = 6, each sweep over rows
// lo..hi counting hi-lo. A variable so tests can starve the iteration.
var bidiagIterCap = func(n int) int { return 6 * n * n }

// bidiagQR brings the real upper bidiagonal matrix with diagonal d and
// superdiagonal e to diagonal form in place, D <- L D R, by the implicit
// QR of Demmel and Kahan as LAPACK's xBDSQR runs it in absolute-accuracy
// mode, on the values alone: every rotation of rows goes to left and
// every rotation of columns to right, so that D = X diag(d) Y^T with X,
// Y the replayed logs. Entries below eps*max(|d|, |e|) are negligible: a
// negligible superdiagonal (also one below eps times its two diagonal
// neighbours) splits the matrix, and a negligible diagonal is set to
// zero and chased out of its row or column, which splits it too. The
// unreduced block lo..hi at the bottom gets one sweep chasing the bulge
// downwards, shifted by the smaller singular value of its trailing 2x2,
// or unshifted where that shift is negligible next to d[lo].
func bidiagQR(d, e []float64, left, right *rotLog) (rep Report) {
	n := len(d)
	var smax float64
	for _, x := range d {
		smax = math.Max(smax, math.Abs(x))
	}
	for _, x := range e {
		smax = math.Max(smax, math.Abs(x))
	}
	thresh := eps * smax
	negligible := func(i int) bool {
		x := math.Abs(e[i])
		return x <= thresh || x <= eps*(math.Abs(d[i])+math.Abs(d[i+1]))
	}
	rep.Converged = true
	iter, maxIter := 0, bidiagIterCap(n)
	for hi := n - 1; hi > 0; {
		if negligible(hi - 1) {
			e[hi-1] = 0
			hi--
			continue
		}
		lo := hi - 1
		for lo > 0 && !negligible(lo-1) {
			lo--
		}
		if lo > 0 {
			e[lo-1] = 0
		}
		zero := -1
		for i := lo; i <= hi && zero < 0; i++ {
			if math.Abs(d[i]) <= thresh {
				d[i], zero = 0, i
			}
		}
		switch {
		case zero == hi:
			chaseColumn(d, e, lo, hi, right)
			continue
		case zero >= 0:
			chaseRow(d, e, zero, hi, left)
			continue
		}
		if iter >= maxIter {
			rep.Converged = false
			break
		}
		shift := las2min(d[hi-1], e[hi-1], d[hi])
		if r := shift / d[lo]; r*r < eps {
			zeroShiftSweep(d, e, lo, hi, left, right)
		} else {
			shiftedSweep(d, e, lo, hi, shift, left, right)
		}
		rep.Sweeps++
		iter += hi - lo
	}
	if !rep.Converged {
		for _, x := range e {
			rep.Residual = math.Max(rep.Residual, math.Abs(x)/smax)
		}
	}
	return rep
}

// shiftedSweep is one implicit QR step with shift sigma on the unreduced
// block lo..hi (xBDSQR's chase from top to bottom): a column rotation
// that starts the bulge from the first column of D^T D - sigma^2, then
// alternating row and column rotations that chase it off the bottom.
func shiftedSweep(d, e []float64, lo, hi int, sigma float64, left, right *rotLog) {
	f := (math.Abs(d[lo]) - sigma) * (math.Copysign(1, d[lo]) + sigma/d[lo])
	g := e[lo]
	for i := lo; i < hi; i++ {
		c, s, r := givens(f, g)
		right.add(i, i+1, c, s)
		if i > lo {
			e[i-1] = r
		}
		f = c*d[i] + s*e[i]
		e[i] = c*e[i] - s*d[i]
		g = s * d[i+1]
		d[i+1] *= c
		c, s, r = givens(f, g)
		left.add(i, i+1, c, s)
		d[i] = r
		f = c*e[i] + s*d[i+1]
		d[i+1] = c*d[i+1] - s*e[i]
		if i < hi-1 {
			g = s * e[i+1]
			e[i+1] *= c
		}
	}
	e[hi-1] = f
}

// zeroShiftSweep is the shift-free QR step of Demmel and Kahan on the
// block lo..hi, which keeps small values accurate where a shift would
// cancel them.
func zeroShiftSweep(d, e []float64, lo, hi int, left, right *rotLog) {
	cs, oldcs := 1.0, 1.0
	var sn, oldsn, r float64
	for i := lo; i < hi; i++ {
		cs, sn, r = givens(d[i]*cs, e[i])
		right.add(i, i+1, cs, sn)
		if i > lo {
			e[i-1] = oldsn * r
		}
		oldcs, oldsn, d[i] = givens(oldcs*r, d[i+1]*sn)
		left.add(i, i+1, oldcs, oldsn)
	}
	h := d[hi] * cs
	d[hi] = h * oldcs
	e[hi-1] = h * oldsn
}

// chaseRow zeroes row z < hi of the block, whose diagonal entry is zero,
// by rotating it against each row below (Golub-Van Loan 8.6.2): every
// rotation moves the row's one nonzero a column to the right, the last
// one off the block, which splits at z.
func chaseRow(d, e []float64, z, hi int, left *rotLog) {
	f := e[z]
	e[z] = 0
	for j := z + 1; j <= hi; j++ {
		c, s, r := givens(d[j], f)
		left.add(j, z, c, s)
		d[j] = r
		if j < hi {
			f = -s * e[j]
			e[j] *= c
		}
	}
}

// chaseColumn is chaseRow's transpose for the last column of the block
// lo..hi, whose diagonal entry is zero: column rotations against each
// column to its left move its one nonzero up and out of the block, which
// deflates a zero singular value.
func chaseColumn(d, e []float64, lo, hi int, right *rotLog) {
	f := e[hi-1]
	e[hi-1] = 0
	for j := hi - 1; j >= lo; j-- {
		c, s, r := givens(d[j], f)
		right.add(j, hi, c, s)
		d[j] = r
		if j > lo {
			f = -s * e[j-1]
			e[j-1] *= c
		}
	}
}

// givens returns the rotation with [c s; -s c] [f; g] = [r; 0]. Like
// LAPACK's xLARTG it forms sqrt(f^2 + g^2) directly when neither square
// can overflow or underflow, and pays for math.Hypot's scaling otherwise.
func givens(f, g float64) (c, s, r float64) {
	const rtmin, rtmax = 1.4916681462400413e-154, 4.7403759540545887e+153
	switch fa, ga := math.Abs(f), math.Abs(g); {
	case g == 0:
		return 1, 0, f
	case f == 0:
		return 0, 1, g
	case fa > rtmin && fa < rtmax && ga > rtmin && ga < rtmax:
		r = math.Sqrt(f*f + g*g)
	default:
		r = math.Hypot(f, g)
	}
	return f / r, g / r, r
}

// las2min is the smaller singular value of the upper triangular
// [[f, g], [0, h]], computed without overflow or needless underflow as
// LAPACK's xLAS2 does.
func las2min(f, g, h float64) float64 {
	fa, ga, ha := math.Abs(f), math.Abs(g), math.Abs(h)
	fhmn, fhmx := math.Min(fa, ha), math.Max(fa, ha)
	switch {
	case fhmn == 0:
		return 0
	case ga < fhmx:
		as, at := 1+fhmn/fhmx, (fhmx-fhmn)/fhmx
		au := (ga / fhmx) * (ga / fhmx)
		return fhmn * 2 / (math.Sqrt(as*as+au) + math.Sqrt(at*at+au))
	}
	au := fhmx / ga
	if au == 0 {
		return fhmn * fhmx / ga
	}
	as, at := 1+fhmn/fhmx, (fhmx-fhmn)/fhmx
	c := 1 / (math.Sqrt(1+(as*au)*(as*au)) + math.Sqrt(1+(at*au)*(at*au)))
	return 2 * (fhmn * c) * au
}

// rotLog records the Givens rotations bidiagQR applies to one side of
// the bidiagonal, in order: rotation t, (p, q, c, s) = (pq[2t],
// pq[2t+1], cs[2t], cs[2t+1]), replaced rows (or columns) p and q by
// c*p + s*q and c*q - s*p. Its storage comes from the workspace.
type rotLog struct {
	ws *workspace
	pq []int
	cs []float64
}

// newRotLog starts an empty log sized for the typical rotation count of
// an n-by-n bidiagonal; a longer one grows by doubling.
func newRotLog(ws *workspace, n int) rotLog {
	size := 2*n*n + 64
	return rotLog{ws: ws, pq: ws.n.take(size)[:0], cs: ws.f.take(size)[:0]}
}

func (l *rotLog) add(p, q int, c, s float64) {
	if len(l.cs) == cap(l.cs) {
		pq, cs := l.ws.n.take(2*cap(l.pq)), l.ws.f.take(2*cap(l.cs))
		l.pq, l.cs = pq[:copy(pq, l.pq)], cs[:copy(cs, l.cs)]
	}
	l.pq = append(l.pq, p, q)
	l.cs = append(l.cs, c, s)
}

// replay overwrites the n-by-k row-major block x with the rotations'
// product applied to the k columns of the identity that select
// coordinates order[0..k-1], negated where sign (when given) is negative
// there: the kept columns of the orthogonal factor the log accumulates.
// Every rotation (p, q, c, s) acts on the block, from the last logged to
// the first, as x_p <- c x_p - s x_q, x_q <- s x_p + c x_q.
func (l *rotLog) replay(x []float64, k int, order []int, sign []float64) {
	clear(x)
	for c, j := range order[:k] {
		x[j*k+c] = 1
		if sign != nil && sign[j] < 0 {
			x[j*k+c] = -1
		}
	}
	for t := len(l.cs) - 2; t >= 0; t -= 2 {
		c, s := l.cs[t], l.cs[t+1]
		p, q := l.pq[t]*k, l.pq[t+1]*k
		xp, xq := x[p:p+k], x[q:q+k]
		for i, a := range xp {
			b := xq[i]
			xp[i] = c*a - s*b
			xq[i] = s*a + c*b
		}
	}
}

// TruncatedSVD computes the best rank-r approximation factors of A:
// U (m-by-r), s (length r), V (n-by-r) with r = min(rank, min(m, n)).
// Only the r kept pairs of singular vectors are built (see svdBidiag).
// Where the singular values should be attached is the caller's choice
// (see einsumsvd.SigmaMode for the conventions the PEPS layer uses).
func TruncatedSVD(a *tensor.Dense, rank int) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	if rank <= 0 {
		panic(fmt.Sprintf("linalg: TruncatedSVD rank %d invalid", rank))
	}
	u, s, v, _ = svdReport(a, rank)
	k := u.Dim(1)
	recordTruncation(s, k)
	return u, s[:k], v
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
