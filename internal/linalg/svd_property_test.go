package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"gokoala/internal/health"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// The suite runs its properties over both SVD paths at every shape,
// whatever the cutover would pick. Subtests label them precond=false for
// svdJacobi, plain one-sided Jacobi on the matrix itself, and
// precond=true for svdBidiag, which first reduces the matrix by
// Householder reflectors (a QR when tall, then a bidiagonalization) and
// iterates on what that leaves.
var propertyShapes = [][2]int{{1, 1}, {8, 8}, {24, 24}, {81, 81}, {162, 81}, {81, 162}, {512, 64}, {16, 128}}

// svdPath runs one of the two paths on a and keeps every pair.
func svdPath(a *tensor.Dense, precond bool) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	if precond {
		return svdBidiag(a, min(a.Dim(0), a.Dim(1)))
	}
	return svdJacobi(a)
}

// bidiagTol is svdBidiag's contract for an m-by-n input, relative to
// sigma_max: every singular value within eps*(m+n)*sigma_max.
func bidiagTol(m, n int) float64 { return eps * float64(m+n) }

// orthoCols returns an m-by-k matrix with orthonormal columns.
func orthoCols(rng *rand.Rand, m, k int) *tensor.Dense {
	q, _ := QR(tensor.Rand(rng, m, k))
	return q
}

func diagMat(s []float64) *tensor.Dense {
	d := tensor.New(len(s), len(s))
	for i, x := range s {
		d.Set(complex(x, 0), i, i)
	}
	return d
}

func adjoint(a *tensor.Dense) *tensor.Dense { return a.Conj().Transpose(1, 0) }

// spectrumCase is one test matrix with what is known about its singular
// values: want (nil when unknown) to relTol relative (on the Jacobi path;
// bidiagTol on the other) or absTol*want[0] absolute accuracy, and rank
// (0 when full) beyond which they vanish.
type spectrumCase struct {
	name   string
	a      *tensor.Dense
	want   []float64
	relTol float64
	absTol float64
	rank   int
}

// spectrumCases builds the four spectra of the property suite on one
// shape. The graded case is an orthonormal frame scaled column by
// column (row by row when wide) over twelve decades: its singular values
// are the scale factors, and an algorithm that is accurate column-wise —
// one-sided Jacobi — must return each of them to high relative accuracy,
// which a bidiagonalization SVD (error eps*sigma_max in every value)
// cannot: svdBidiag is held to bidiagTol instead.
func spectrumCases(rng *rand.Rand, m, n int) []spectrumCase {
	k := min(m, n)
	graded := make([]float64, k)
	clustered := make([]float64, k)
	for i := range graded {
		graded[i] = math.Pow(10, -12*float64(i)/float64(max(k-1, 1)))
		clustered[i] = 1 - 1e-8*float64(i)/float64(k)
	}
	var gradedA *tensor.Dense
	if m >= n {
		gradedA = tensor.MatMul(orthoCols(rng, m, k), diagMat(graded))
	} else {
		gradedA = tensor.MatMul(diagMat(graded), adjoint(orthoCols(rng, n, k)))
	}
	clusteredA := tensor.MatMul(tensor.MatMul(orthoCols(rng, m, k), diagMat(clustered)), adjoint(orthoCols(rng, n, k)))

	// Exactly rank-deficient: every column is a bit-for-bit copy of one
	// of the first r.
	r := (k + 3) / 4
	deficient := tensor.Rand(rng, m, n)
	dd := deficient.Data()
	for i := 0; i < m; i++ {
		for j := r; j < n; j++ {
			dd[i*n+j] = dd[i*n+j%r]
		}
	}
	return []spectrumCase{
		{name: "random", a: tensor.Rand(rng, m, n)},
		{name: "graded", a: gradedA, want: graded, relTol: 1e-10},
		{name: "deficient", a: deficient, rank: r},
		{name: "clustered", a: clusteredA, want: clustered, absTol: 1e-12},
	}
}

// checkSVD asserts the factorization properties every SVD result must
// have, whatever the path that produced it.
func checkSVD(t *testing.T, a, u *tensor.Dense, s []float64, v *tensor.Dense) {
	t.Helper()
	m, n := a.Dim(0), a.Dim(1)
	k := min(m, n)
	if len(s) != k || u.Dim(0) != m || u.Dim(1) != k || v.Dim(0) != n || v.Dim(1) != k {
		t.Fatalf("factor shapes %v %d %v for a %dx%d input", u.Shape(), len(s), v.Shape(), m, n)
	}
	for i, x := range s {
		if x < 0 || math.IsNaN(x) || (i > 0 && x > s[i-1]) {
			t.Fatalf("singular values not descending and non-negative at %d: %v", i, s)
		}
	}
	if d := maxOffUnitary(u); d > 1e-12 {
		t.Fatalf("||U*U - I|| = %g", d)
	}
	if d := maxOffUnitary(v); d > 1e-12 {
		t.Fatalf("||V*V - I|| = %g", d)
	}
	recon := tensor.MatMul(tensor.MatMul(u, diagMat(s)), adjoint(v))
	if res, bound := recon.Sub(a).Norm(), 8*eps*float64(m+n)*a.Norm(); res > bound {
		t.Fatalf("||A - U S V*|| = %g exceeds %g", res, bound)
	}
}

// TestSVDProperties runs both paths over the shape x spectrum grid, and
// requires them to agree with each other on every singular value:
// relatively where the spectrum is known to be determined relatively and
// Jacobi is the path, to bidiagTol otherwise.
func TestSVDProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, sz := range propertyShapes {
		for _, sc := range spectrumCases(rng, sz[0], sz[1]) {
			var plain []float64
			for _, precond := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s/precond=%v", sz[0], sz[1], sc.name, precond)
				t.Run(name, func(t *testing.T) {
					u, s, v, rep := svdPath(sc.a, precond)
					if !rep.Converged {
						t.Fatalf("not converged after %d sweeps (residual %g)", rep.Sweeps, rep.Residual)
					}
					checkSVD(t, sc.a, u, s, v)
					absTol := bidiagTol(sz[0], sz[1])
					for i, want := range sc.want {
						tol := sc.absTol * sc.want[0]
						if precond {
							tol += absTol * sc.want[0]
						} else {
							tol += sc.relTol * want
						}
						if math.Abs(s[i]-want) > tol {
							t.Fatalf("sigma[%d] = %.17g, want %.17g (off by %g, allowed %g)", i, s[i], want, s[i]-want, tol)
						}
					}
					if sc.rank > 0 {
						for i := sc.rank; i < len(s); i++ {
							if s[i] > 1e-13*s[0] {
								t.Fatalf("rank %d input has sigma[%d] = %g (sigma_max %g)", sc.rank, i, s[i], s[0])
							}
						}
					}
					if !precond {
						plain = s
						return
					}
					for i := range s {
						if math.Abs(s[i]-plain[i]) > absTol*plain[0] {
							t.Fatalf("paths disagree on sigma[%d]: plain %.17g, bidiagonal %.17g", i, plain[i], s[i])
						}
					}
				})
			}
		}
	}
}

// unitaryLike returns Q A for m >= n and A Q otherwise, Q a random
// unitary of the matching size: the same singular values, reached through
// entirely different rounding.
func unitaryLike(rng *rand.Rand, a *tensor.Dense) *tensor.Dense {
	m, n := a.Dim(0), a.Dim(1)
	if m >= n {
		return tensor.MatMul(orthoCols(rng, m, m), a)
	}
	return tensor.MatMul(a, orthoCols(rng, n, n))
}

// TestSVDScaledColumnsRelativeAccuracy is the non-trivial version of the
// graded case: A = B D with B well conditioned but far from orthogonal
// and D spanning twelve decades, where no exact spectrum is at hand.
// Plain one-sided Jacobi has relative error of order eps*kappa(B),
// independent of D (Demmel-Veselic), so it must return the same small
// singular values, to 1e-10 relative, for A and for Q A with Q unitary —
// an algorithm accurate only to eps*sigma_max differs there by 1e-4
// relative. svdBidiag is that algorithm, and is held to bidiagTol.
func TestSVDScaledColumnsRelativeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, sz := range [][2]int{{24, 24}, {81, 81}, {162, 81}, {64, 128}} {
		m, n := sz[0], sz[1]
		k := min(m, n)
		d := make([]float64, k)
		for i := range d {
			d[i] = math.Pow(10, -12*float64(i)/float64(k-1))
		}
		var a *tensor.Dense
		if m >= n {
			b := orthoCols(rng, m, k).Add(tensor.Rand(rng, m, k).Scale(complex(0.3/math.Sqrt(float64(m)), 0)))
			a = tensor.MatMul(b, diagMat(d))
		} else {
			b := orthoCols(rng, n, k).Add(tensor.Rand(rng, n, k).Scale(complex(0.3/math.Sqrt(float64(n)), 0)))
			a = tensor.MatMul(diagMat(d), adjoint(b))
		}
		u, plain, v, _ := svdJacobi(a)
		checkSVD(t, a, u, plain, v)
		_, rotated, _, _ := svdJacobi(unitaryLike(rng, a))
		for i := range plain {
			if math.Abs(rotated[i]-plain[i]) > 1e-10*plain[i] {
				t.Fatalf("%dx%d: sigma[%d] of A %.17g vs of QA %.17g (relative %g)",
					m, n, i, plain[i], rotated[i], math.Abs(rotated[i]-plain[i])/plain[i])
			}
		}
		ub, sb, vb, _ := svdBidiag(a, k)
		checkSVD(t, a, ub, sb, vb)
		for i := range sb {
			if math.Abs(sb[i]-plain[i]) > bidiagTol(m, n)*plain[0] {
				t.Fatalf("%dx%d: sigma[%d] plain %.17g vs bidiagonal %.17g", m, n, i, plain[i], sb[i])
			}
		}
	}
}

// TestSVDRankDeficientTall covers the factors when singular values
// vanish: rank 3 of 128x16 and the zero matrix, through both paths. U and
// V must be orthonormal regardless: the plain path completes U by
// Gram-Schmidt, the bidiagonal one never needs to (its vectors are
// reflectors and rotations applied to unit vectors).
func TestSVDRankDeficientTall(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	rank3 := tensor.MatMul(tensor.Rand(rng, 128, 3), tensor.Rand(rng, 3, 16))
	for _, tc := range []struct {
		name string
		a    *tensor.Dense
		rank int
	}{{"rank3", rank3, 3}, {"rank3-wide", adjoint(rank3), 3}, {"zero", tensor.New(128, 16), 0}} {
		for _, precond := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/precond=%v", tc.name, precond), func(t *testing.T) {
				u, s, v, rep := svdPath(tc.a, precond)
				if !rep.Converged {
					t.Fatalf("not converged: %+v", rep)
				}
				checkSVD(t, tc.a, u, s, v)
				for i := tc.rank; i < len(s); i++ {
					if s[i] > 1e-12*(1+s[0]) {
						t.Fatalf("sigma[%d] = %g beyond rank %d", i, s[i], tc.rank)
					}
				}
				recon := tensor.MatMul(tensor.MatMul(u, diagMat(s)), adjoint(v))
				if d := maxAbsDiff(recon, tc.a); d > 1e-12*(1+s[0]) {
					t.Fatalf("reconstruction off by %g", d)
				}
			})
		}
	}
}

// TestPivotedQRProperties checks the factorization in front of
// svdBidiag's iteration; it keeps the name it had when a column-pivoted
// QR stood there. The QR, A = Q R, must have orthonormal Q and
// reconstruct A, and where the column order already ranks the columns it
// must reveal that without pivoting: on the graded case |r_ii| is
// sigma_i (to relTol), on the exactly deficient one it vanishes past the
// rank. The bidiagonalization of what svdBidiag hands it — R when the
// input is tall enough for the QR to run first, A otherwise —
// B = H [P D Q*; 0] G*, must have unitary H and G and unit phases, and
// reconstruct B.
func TestPivotedQRProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, sz := range propertyShapes {
		m, n := sz[0], sz[1]
		if m < n {
			continue // svdBidiag only ever factors the tall orientation
		}
		for _, sc := range spectrumCases(rng, m, n) {
			t.Run(fmt.Sprintf("%dx%d/%s", m, n, sc.name), func(t *testing.T) {
				ws := getWorkspace()
				defer ws.release()
				bound := 8 * eps * float64(m+n) * sc.a.Norm()
				h := newHouseholder(ws, sc.a.Clone().Data(), m, n)
				h.factor()
				r := tensor.New(n, n)
				for i := 0; i < n; i++ {
					copy(r.Data()[i*n+i:(i+1)*n], h.a[i*n+i:(i+1)*n])
				}
				q := tensor.New(m, n)
				for i := 0; i < n; i++ {
					q.Set(1, i, i)
				}
				h.applyQ(q.Data(), n, true)
				if d := maxOffUnitary(q); d > 1e-12 {
					t.Fatalf("||Q*Q - I|| = %g", d)
				}
				if res := tensor.MatMul(q, r).Sub(sc.a).Norm(); res > bound {
					t.Fatalf("||A - Q R|| = %g exceeds %g", res, bound)
				}
				for i := 0; i < n; i++ {
					rii := cmplx.Abs(r.At(i, i))
					if sc.relTol > 0 && math.Abs(rii-sc.want[i]) > sc.relTol*sc.want[i] {
						t.Fatalf("|r_%d%d| = %.17g, want sigma_%d = %.17g", i, i, rii, i, sc.want[i])
					}
					if sc.rank > 0 && i >= sc.rank && rii > bound {
						t.Fatalf("|r_%d%d| = %g past rank %d exceeds %g", i, i, rii, sc.rank, bound)
					}
				}

				b, rows := sc.a, m
				if m >= 2*n {
					b, rows = r, n
				}
				bd := bidiagonalize(ws, b.Clone().Data(), rows, n)
				hb := tensor.New(rows, n)
				c := tensor.New(rows, n)
				for j := 0; j < n; j++ {
					if math.Abs(cmplx.Abs(bd.p[j])-1) > 1e-14 || math.Abs(cmplx.Abs(bd.q[j])-1) > 1e-14 {
						t.Fatalf("phases p_%d = %v, q_%d = %v not unit", j, bd.p[j], j, bd.q[j])
					}
					hb.Set(1, j, j)
					c.Set(bd.p[j]*complex(bd.d[j], 0)*cmplx.Conj(bd.q[j]), j, j)
					if j < n-1 {
						c.Set(bd.p[j]*complex(bd.e[j], 0)*cmplx.Conj(bd.q[j+1]), j, j+1)
					}
				}
				bd.left.applyQ(hb.Data(), n, true)
				if d := maxOffUnitary(hb); d > 1e-12 {
					t.Fatalf("||H*H - I|| = %g", d)
				}
				g := tensor.New(n, n)
				for j := 0; j < n; j++ {
					g.Set(1, j, j)
				}
				bd.right.applyQ(g.Data()[n:], n, false)
				if d := maxOffUnitary(g); d > 1e-12 {
					t.Fatalf("||G*G - I|| = %g", d)
				}
				bd.left.applyQ(c.Data(), n, false)
				if res := tensor.MatMul(c, adjoint(g)).Sub(b).Norm(); res > bound {
					t.Fatalf("||B - H [P D Q*; 0] G*|| = %g exceeds %g", res, bound)
				}
			})
		}
	}
}

// TestSVDPrecondReportsNonConvergence starves svdBidiag's iteration cap
// to one inner step, which admits a single QR sweep: the report must say
// so with a positive residual, SVDReport must count it, and the factors
// must stay orthonormal (reflectors and rotations are unitary whether or
// not the iteration finished).
func TestSVDPrecondReportsNonConvergence(t *testing.T) {
	defer func(old func(int) int) { bidiagIterCap = old }(bidiagIterCap)
	bidiagIterCap = func(int) int { return 1 }
	a := tensor.Rand(rand.New(rand.NewSource(65)), 40, 24)
	u, _, v, rep := svdBidiag(a, 24)
	if rep.Converged || rep.Residual <= 0 || rep.Sweeps != 1 {
		t.Fatalf("starved bidiagonal SVD reported %+v", rep)
	}
	if d := maxOffUnitary(u); d > 1e-12 {
		t.Fatalf("left factor lost orthonormality without convergence: %g", d)
	}
	if d := maxOffUnitary(v); d > 1e-12 {
		t.Fatalf("right factor lost orthonormality without convergence: %g", d)
	}
	health.ResetCounters()
	if _, _, _, rep := SVDReport(a); rep.Converged || health.Nonconverged() != 1 {
		t.Fatalf("SVDReport of a starved SVD: %+v, nonconverged %d", rep, health.Nonconverged())
	}
}

// TestTruncatedSVDKeptVectors holds svdBidiag's truncated contract
// against plain Jacobi on every shape of the suite plus the 20x256
// RandSVD sketch, at k = 1, n/4 and n: orthonormal kept vectors, the
// Eckart-Young error ||A - U_k S_k V_k*||_F^2 = sum_{i>k} sigma_i^2, and
// the kept left and right subspaces equal to Jacobi's wherever the
// spectrum has a gap at k.
func TestTruncatedSVDKeptVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	shapes := append(append([][2]int{}, propertyShapes...), [2]int{20, 256})
	for _, sz := range shapes {
		m, n := sz[0], sz[1]
		small := min(m, n)
		for _, in := range []struct {
			name string
			a    *tensor.Dense
		}{{"rand", tensor.Rand(rng, m, n)}, {"decay", decayed(rng, m, n)}} {
			uj, sj, vj, _ := svdJacobi(in.a)
			norm := in.a.Norm()
			tol := 8 * bidiagTol(m, n) * norm
			ks := []int{1}
			for _, k := range []int{small / 4, small} {
				if k > ks[len(ks)-1] {
					ks = append(ks, k)
				}
			}
			for _, k := range ks {
				t.Run(fmt.Sprintf("%dx%d/%s/k=%d", m, n, in.name, k), func(t *testing.T) {
					u, s, v, rep := svdBidiag(in.a, k)
					if !rep.Converged || u.Dim(0) != m || u.Dim(1) != k || v.Dim(0) != n || v.Dim(1) != k || len(s) != small {
						t.Fatalf("report %+v, factors %v %d %v", rep, u.Shape(), len(s), v.Shape())
					}
					if du, dv := maxOffUnitary(u), maxOffUnitary(v); du > 1e-12 || dv > 1e-12 {
						t.Fatalf("||U*U - I|| = %g, ||V*V - I|| = %g", du, dv)
					}
					var tail float64
					for i, x := range sj {
						if math.Abs(s[i]-x) > bidiagTol(m, n)*sj[0] {
							t.Fatalf("sigma[%d] = %.17g, Jacobi %.17g", i, s[i], x)
						}
						if i >= k {
							tail += x * x
						}
					}
					approx := tensor.MatMul(tensor.MatMul(u, diagMat(s[:k])), adjoint(v))
					if got := approx.Sub(in.a).Norm(); math.Abs(got-math.Sqrt(tail)) > tol {
						t.Fatalf("||A - A_k|| = %.17g, Eckart-Young %.17g", got, math.Sqrt(tail))
					}
					if k == small || sj[k-1]-sj[k] < 1e-3*sj[0] {
						return
					}
					// sin(theta) between the kept subspaces is at most the
					// perturbation over the gap (Wedin).
					bound := 100 * bidiagTol(m, n) * sj[0] / (sj[k-1] - sj[k])
					for _, f := range [][2]*tensor.Dense{{u, sliceCols(uj, k)}, {v, sliceCols(vj, k)}} {
						p := tensor.MatMul(f[0], adjoint(f[0]))
						pj := tensor.MatMul(f[1], adjoint(f[1]))
						if d := p.Sub(pj).Norm(); d > bound {
							t.Fatalf("kept projector off Jacobi's by %g (bound %g)", d, bound)
						}
					}
				})
			}
		}
	}
}

// TestSVDBidiagZeroInteriorColumn factors a 32x32 random matrix whose
// column 13 is exactly zero. Its rank defect surfaces in the bidiagonal
// as a last diagonal entry at rounding level, which bidiagQR sets to zero
// and chases out of its column (chaseColumn) instead of iterating on;
// TestBidiagQRZeroDiagonals covers the row chase.
func TestSVDBidiagZeroInteriorColumn(t *testing.T) {
	a := tensor.Rand(rand.New(rand.NewSource(71)), 32, 32)
	for i := 0; i < 32; i++ {
		a.Set(0, i, 13)
	}
	u, s, v, rep := svdBidiag(a, 32)
	if !rep.Converged {
		t.Fatalf("not converged: %+v", rep)
	}
	checkSVD(t, a, u, s, v)
	if s[31] > 1e-14*s[0] {
		t.Fatalf("sigma_min = %g of a matrix with a zero column", s[31])
	}
	for i := 0; i < 32; i++ {
		if x := cmplx.Abs(v.At(13, i)); i < 31 && x > 1e-13 || i == 31 && math.Abs(x-1) > 1e-13 {
			t.Fatalf("|v[13][%d]| = %g: the null vector of a zero column is e_13", i, x)
		}
	}
	_, sj, _, _ := svdJacobi(a)
	for i := range s {
		if math.Abs(s[i]-sj[i]) > bidiagTol(32, 32)*sj[0] {
			t.Fatalf("sigma[%d] = %.17g, Jacobi %.17g", i, s[i], sj[i])
		}
	}
}

// TestBidiagQRZeroDiagonals runs bidiagQR on real bidiagonals with exact
// zeros on the diagonal — interior, first and last — so that both chases
// run, and requires the replayed rotation logs to diagonalize them:
// X diag(d) Y^T equals the input, X and Y orthogonal, d matching Jacobi.
func TestBidiagQRZeroDiagonals(t *testing.T) {
	for _, tc := range []struct{ d, e []float64 }{
		{[]float64{3, 1, 0, 2, 1, 4}, []float64{1, 2, 1, 1, 3}},
		{[]float64{0, 1, 2, 3}, []float64{1, 1, 1}},
		{[]float64{2, 1, 3, 0}, []float64{1, 1, 1}},
		{[]float64{1, 0, 0, 1, 0}, []float64{1, 1, 1, 1}},
	} {
		n := len(tc.d)
		b := tensor.New(n, n)
		for i := range tc.d {
			b.Set(complex(tc.d[i], 0), i, i)
			if i < n-1 {
				b.Set(complex(tc.e[i], 0), i, i+1)
			}
		}
		ws := getWorkspace()
		d, e := append([]float64(nil), tc.d...), append([]float64(nil), tc.e...)
		xl, yl := newRotLog(ws, n), newRotLog(ws, n)
		rep := bidiagQR(d, e, &xl, &yl)
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		x, y := make([]float64, n*n), make([]float64, n*n)
		xl.replay(x, n, order, nil)
		yl.replay(y, n, order, nil)
		ws.release()
		if !rep.Converged {
			t.Fatalf("%v: not converged: %+v", tc.d, rep)
		}
		xm, ym := tensor.New(n, n), tensor.New(n, n)
		for i := range x {
			xm.Data()[i], ym.Data()[i] = complex(x[i], 0), complex(y[i], 0)
		}
		if dx, dy := maxOffUnitary(xm), maxOffUnitary(ym); dx > 1e-14 || dy > 1e-14 {
			t.Fatalf("%v: logs replay to non-orthogonal factors (%g, %g)", tc.d, dx, dy)
		}
		if r := tensor.MatMul(tensor.MatMul(xm, diagMat(d)), adjoint(ym)).Sub(b).Norm(); r > 1e-14*b.Norm() {
			t.Fatalf("%v: X diag(d) Y^T off the bidiagonal by %g", tc.d, r)
		}
		_, sj, _, _ := svdJacobi(b)
		got := make([]float64, n)
		for i, x := range d {
			got[i] = math.Abs(x)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(got)))
		for i := range got {
			if math.Abs(got[i]-sj[i]) > 1e-14*sj[0] {
				t.Fatalf("%v: sigma %v, Jacobi %v", tc.d, got, sj)
			}
		}
	}
}

// TestSVDKernelVariantsAgree compares the assembly and forced-Go SVDs:
// different rounding, same factorization, singular values within the
// kernel tolerance of the column length.
func TestSVDKernelVariantsAgree(t *testing.T) {
	if tensor.SetKernel("asm") != nil {
		t.Skip("asm kernels unavailable")
	}
	defer tensor.SetKernel("auto")
	rng := rand.New(rand.NewSource(66))
	for _, sz := range [][2]int{{8, 8}, {24, 24}, {81, 81}, {162, 81}, {16, 128}} {
		a := tensor.Rand(rng, sz[0], sz[1])
		tensor.SetKernel("asm")
		ua, sa, va := SVD(a)
		tensor.SetKernel("go")
		ug, sg, vg := SVD(a)
		checkSVD(t, a, ua, sa, va)
		checkSVD(t, a, ug, sg, vg)
		tol := 1e-13 * float64(max(sz[0], sz[1])+1) * sg[0]
		for i := range sa {
			if math.Abs(sa[i]-sg[i]) > tol {
				t.Fatalf("%dx%d: sigma[%d] asm %.17g vs go %.17g", sz[0], sz[1], i, sa[i], sg[i])
			}
		}
	}
}

// TestFlopChargeSurvivesConcurrency is the regression test for the
// analytic flop charge: SVD, EigH and QR used to replace whatever the
// global counter gained while they ran, GEMMs of other goroutines
// included, so a concurrent run lost flops. The total must equal the
// sequential one exactly.
func TestFlopChargeSurvivesConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := tensor.Rand(rng, 64, 64)
	herm := randHermitian(rng, 24)
	x, y := tensor.Rand(rng, 32, 32), tensor.Rand(rng, 32, 32)
	factor := func() {
		SVD(a)
		EigH(herm)
		QR(a)
	}
	gemms := func() {
		for i := 0; i < 200; i++ {
			tensor.MatMul(x, y)
		}
	}
	tensor.ResetFlopCount()
	factor()
	if got, want := tensor.FlopCount(), svdFlops(64, 64)+EigFlops(24)+QRFlops(64, 64); got != want {
		t.Fatalf("factorizations charged %d flops, want the analytic %d", got, want)
	}
	gemms()
	want := tensor.FlopCount()

	for run := 0; run < 3; run++ {
		tensor.ResetFlopCount()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); factor() }()
		go func() { defer wg.Done(); gemms() }()
		wg.Wait()
		if got := tensor.FlopCount(); got != want {
			t.Fatalf("concurrent run %d counted %d flops, sequential %d", run, got, want)
		}
	}
}

// TestSVDWorkerSplitInvariant: factors must be bit-identical at 1 and 4
// workers, on the plain 2048x14, large enough that the pool really
// splits a round's pairs, and on the bidiagonal 150x150.
func TestSVDWorkerSplitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	defer pool.SetWorkers(0)
	for _, sz := range [][2]int{{150, 150}, {2048, 14}} {
		a := tensor.Rand(rng, sz[0], sz[1])
		pool.SetWorkers(1)
		u1, s1, v1 := SVD(a)
		pool.SetWorkers(4)
		u4, s4, v4 := SVD(a)
		for i := range s1 {
			if s1[i] != s4[i] {
				t.Fatalf("%dx%d: sigma[%d] differs between 1 and 4 workers", sz[0], sz[1], i)
			}
		}
		if maxAbsDiff(u1, u4) != 0 || maxAbsDiff(v1, v4) != 0 {
			t.Fatalf("%dx%d: factors differ between 1 and 4 workers", sz[0], sz[1])
		}
	}
}

// TestSVDNearParallelColumns is the regression test for the cached
// column norms: one rotation of two near-parallel columns shrinks one of
// them by eight or more decades, where the analytically updated squared
// norm alpha - t has cancelled to noise (zero or negative) while the
// true one is far above the floor. Dismissing the column on that value
// left it un-orthogonalized — ||U*U - I|| of order 1 with Converged set —
// on the plain path, whose raw columns can be near-parallel; the
// bidiagonal path runs as the cross-check.
func TestSVDNearParallelColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	type testCase struct {
		name string
		a    *tensor.Dense
	}
	cases := []testCase{
		{"sigma-gap-1e9", tensor.MatMul(tensor.MatMul(orthoCols(rng, 8, 3), diagMat([]float64{1, 1e-9, 1e-11})), adjoint(orthoCols(rng, 3, 3)))},
		{"rank3-plus-1e-14-noise", tensor.MatMul(tensor.Rand(rng, 12, 3), tensor.Rand(rng, 3, 8)).Add(tensor.Rand(rng, 12, 8).Scale(1e-14))},
	}
	// [c, a, a + sc*b]: columns 1 and 2 of three meet in the first round
	// of the tournament, still parallel. Whether alpha - t then rounds to a
	// positive or a non-positive number is a coin toss per input, hence
	// several.
	g := tensor.Rand(rng, 8, 3)
	for _, sc := range []float64{1e-8, 1e-9, 1e-10, 1e-11, 1e-12} {
		a := tensor.New(8, 3)
		for i := 0; i < 8; i++ {
			a.Set(g.At(i, 2), i, 0)
			a.Set(g.At(i, 0), i, 1)
			a.Set(g.At(i, 0)+complex(sc, 0)*g.At(i, 1), i, 2)
		}
		cases = append(cases, testCase{fmt.Sprintf("near-parallel-%g", sc), a})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			up, plain, vp, rep := svdJacobi(tc.a)
			if !rep.Converged {
				t.Fatalf("plain path not converged: %+v", rep)
			}
			checkSVD(t, tc.a, up, plain, vp)
			u, s, v, _ := svdBidiag(tc.a, len(plain))
			checkSVD(t, tc.a, u, s, v)
			for i := range s {
				if math.Abs(s[i]-plain[i]) > bidiagTol(tc.a.Dim(0), tc.a.Dim(1))*plain[0] {
					t.Fatalf("sigma[%d]: plain %.17g vs bidiagonal %.17g", i, plain[i], s[i])
				}
			}
		})
	}
}
