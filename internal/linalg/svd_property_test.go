package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

var propertyShapes = [][2]int{{1, 1}, {8, 8}, {24, 24}, {81, 81}, {162, 81}, {81, 162}, {512, 64}, {16, 128}}

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
// values: want (nil when unknown) to relTol relative or absTol*want[0]
// absolute accuracy, and rank (0 when full) beyond which they vanish.
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
// one-sided Jacobi, with or without the pivoted QR in front — must
// return each of them to high relative accuracy, which a
// bidiagonalization SVD (error eps*sigma_max in every value) cannot.
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

// TestSVDProperties runs both paths of svdJacobi over the shape x
// spectrum grid, and requires them to agree with each other on every
// singular value (relatively, where the spectrum is known to be
// determined relatively).
func TestSVDProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, sz := range propertyShapes {
		for _, sc := range spectrumCases(rng, sz[0], sz[1]) {
			var plain []float64
			for _, precond := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s/precond=%v", sz[0], sz[1], sc.name, precond)
				t.Run(name, func(t *testing.T) {
					u, s, v, rep := svdJacobi(sc.a, precond)
					if !rep.Converged {
						t.Fatalf("not converged after %d sweeps (residual %g)", rep.Sweeps, rep.Residual)
					}
					checkSVD(t, sc.a, u, s, v)
					for i, want := range sc.want {
						tol := sc.relTol*want + sc.absTol*sc.want[0]
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
						tol := 1e-12 * s[0]
						if sc.relTol > 0 {
							tol = sc.relTol * s[i]
						}
						if math.Abs(s[i]-plain[i]) > tol {
							t.Fatalf("paths disagree on sigma[%d]: plain %.17g, preconditioned %.17g", i, plain[i], s[i])
						}
					}
				})
			}
		}
	}
}

// TestSVDScaledColumnsRelativeAccuracy is the non-trivial version of the
// graded case: A = B D with B well conditioned but far from orthogonal
// and D spanning twelve decades. Plain one-sided Jacobi is the reference
// (Demmel-Veselic: relative error of order eps*kappa(B), independent of
// D); the preconditioned path must match its small singular values to
// the relative accuracy SVD's doc comment promises.
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
		_, plain, _, _ := svdJacobi(a, false)
		u, s, v, _ := svdJacobi(a, true)
		checkSVD(t, a, u, s, v)
		for i := range s {
			if math.Abs(s[i]-plain[i]) > 1e-10*plain[i] {
				t.Fatalf("%dx%d: sigma[%d] plain %.17g vs preconditioned %.17g (relative %g)",
					m, n, i, plain[i], s[i], math.Abs(s[i]-plain[i])/plain[i])
			}
		}
	}
}

// TestSVDRankDeficientTall covers the completion of the factors when
// singular values vanish: rank 3 of 128x16 and the zero matrix, through
// both paths. U and V must be orthonormal regardless (the plain path
// completes U by Gram-Schmidt, the preconditioned one V).
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
				u, s, v, rep := svdJacobi(tc.a, precond)
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

// TestPivotedQRProperties checks the factorization in front of the
// preconditioned SVD: A P = Q R with orthonormal Q, upper-triangular R
// and a non-increasing diagonal, on full-rank, graded and exactly
// rank-deficient inputs.
func TestPivotedQRProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, sz := range propertyShapes {
		m, n := sz[0], sz[1]
		if m < n {
			continue // svdJacobi only ever factors the tall orientation
		}
		for _, sc := range spectrumCases(rng, m, n) {
			t.Run(fmt.Sprintf("%dx%d/%s", m, n, sc.name), func(t *testing.T) {
				ws := getWorkspace()
				defer ws.release()
				h := newHouseholder(ws, sc.a.Clone().Data(), m, n)
				h.factor(ws, true)
				r := tensor.New(n, n)
				for i := 0; i < n; i++ {
					copy(r.Data()[i*n+i:(i+1)*n], h.a[i*n+i:(i+1)*n])
				}
				for i := 1; i < n; i++ {
					if prev, cur := cmplx.Abs(r.At(i-1, i-1)), cmplx.Abs(r.At(i, i)); cur > prev*(1+1e-12) {
						t.Fatalf("|r_%d%d| = %g exceeds |r_%d%d| = %g", i, i, cur, i-1, i-1, prev)
					}
				}
				q := tensor.New(m, n)
				for i := 0; i < n; i++ {
					q.Set(1, i, i)
				}
				h.applyQ(q.Data(), n, true)
				if d := maxOffUnitary(q); d > 1e-12 {
					t.Fatalf("||Q*Q - I|| = %g", d)
				}
				seen := make([]bool, n)
				ap := tensor.New(m, n)
				for j, src := range h.perm {
					if seen[src] {
						t.Fatalf("perm repeats column %d", src)
					}
					seen[src] = true
					for i := 0; i < m; i++ {
						ap.Set(sc.a.At(i, src), i, j)
					}
				}
				if res, bound := tensor.MatMul(q, r).Sub(ap).Norm(), 8*eps*float64(m+n)*sc.a.Norm(); res > bound {
					t.Fatalf("||A P - Q R|| = %g exceeds %g", res, bound)
				}
			})
		}
	}
}

// TestSVDPrecondReportsNonConvergence starves the sweep budget on the
// preconditioned path: the report, the residual and the factors'
// reconstruction (rotations and reflectors are unitary whether or not
// the iteration finished) must behave as on the plain path.
func TestSVDPrecondReportsNonConvergence(t *testing.T) {
	defer func(old int) { maxJacobiSweeps = old }(maxJacobiSweeps)
	maxJacobiSweeps = 1
	a := tensor.Rand(rand.New(rand.NewSource(65)), 40, 24)
	u, s, v, rep := svdJacobi(a, true)
	if rep.Converged || rep.Residual <= 0 || rep.Sweeps != 1 {
		t.Fatalf("starved preconditioned SVD reported %+v", rep)
	}
	if d := maxOffUnitary(u); d > 1e-12 {
		t.Fatalf("left factor lost orthonormality without convergence: %g", d)
	}
	recon := tensor.MatMul(tensor.MatMul(u, diagMat(s)), adjoint(v))
	if d := maxAbsDiff(recon, a); d > 1e-12 {
		t.Fatalf("reconstruction off by %g", d)
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

// TestSVDWorkerSplitInvariant uses shapes large enough that the pool
// really splits a round's pairs (the preconditioned 150x150 and the
// plain 2048x14): factors must be bit-identical at 1 and 4 workers.
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
// on the plain path, whose raw columns can be near-parallel (rows of a
// pivoted R cannot); the preconditioned path runs as the cross-check.
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
			up, plain, vp, rep := svdJacobi(tc.a, false)
			if !rep.Converged {
				t.Fatalf("plain path not converged: %+v", rep)
			}
			checkSVD(t, tc.a, up, plain, vp)
			u, s, v, _ := svdJacobi(tc.a, true)
			checkSVD(t, tc.a, u, s, v)
			for i := range s {
				if s[i] > 1e-6*s[0] && math.Abs(s[i]-plain[i]) > 1e-10*plain[i] {
					t.Fatalf("sigma[%d]: plain %.17g vs preconditioned %.17g", i, plain[i], s[i])
				}
			}
		})
	}
}
