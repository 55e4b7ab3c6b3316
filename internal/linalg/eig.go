package linalg

import (
	"fmt"
	"gokoala/internal/obs"
	"math"
	"math/cmplx"
	"sort"

	"gokoala/internal/health"
	"gokoala/internal/tensor"
)

// eigTol is the relative off-diagonal threshold at which the cyclic Jacobi
// iteration is considered converged.
const eigTol = 1e-14

// maxJacobiSweeps bounds both the Hermitian eigensolver and the one-sided
// SVD; convergence is quadratic so well-conditioned problems finish in a
// handful of sweeps. A variable (not a const) so regression tests can
// starve the iteration and exercise the non-convergence reporting path.
var maxJacobiSweeps = 60

// EigFlops exposes the analytic HEEV-style flop count charged by EigH
// (~9 n^3 / 2 complex fused multiply-adds).
func EigFlops(n int) int64 {
	n64 := int64(n)
	return 9 * n64 * n64 * n64 / 2
}

// EigH computes the eigendecomposition A = V diag(w) V* of a Hermitian
// matrix by the cyclic complex Jacobi method. Eigenvalues are returned in
// ascending order with matching eigenvector columns. The input must be
// Hermitian; only its Hermitian part influences the result.
func EigH(a *tensor.Dense) (w []float64, v *tensor.Dense) {
	w, v, _ = EigHReport(a)
	return w, v
}

// EigHReport is EigH plus the convergence report of the cyclic Jacobi
// iteration; non-convergence is recorded in health.nonconverged and the
// best-effort decomposition is still returned.
func EigHReport(a *tensor.Dense) (w []float64, v *tensor.Dense, rep Report) {
	if a.Rank() != 2 || a.Dim(0) != a.Dim(1) {
		panic(fmt.Sprintf("linalg: EigH requires a square matrix, got %v", a.Shape()))
	}
	// Charge the global flop counter with the standard HEEV-style count
	// rather than the cyclic Jacobi iteration's larger raw arithmetic;
	// see svdFlops.
	tensor.AddFlops(EigFlops(a.Dim(0)))
	w, v, rep = eigHJacobi(a)
	if !rep.Converged {
		health.CountNonconverged("linalg.eigh")
	}
	obs.ObserveHist("solver.sweeps", obs.Pow2Bounds, float64(rep.Sweeps),
		obs.Label{Key: "solver", Value: "jacobi_eigh"})
	return w, v, rep
}

// eigHJacobi is the cyclic Jacobi worker behind EigH.
func eigHJacobi(a *tensor.Dense) (w []float64, v *tensor.Dense, rep Report) {
	n := a.Dim(0)
	// Work on the Hermitian average to be robust against tiny asymmetries
	// from upstream floating point.
	m := make([]complex128, n*n)
	ad := a.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i*n+j] = (ad[i*n+j] + cmplx.Conj(ad[j*n+i])) / 2
		}
	}
	vd := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		vd[i*n+i] = 1
	}

	frob := 0.0
	for _, x := range m {
		frob += real(x)*real(x) + imag(x)*imag(x)
	}
	frob = math.Sqrt(frob)
	if frob == 0 {
		frob = 1
	}

	for rep.Sweeps = 0; ; rep.Sweeps++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += cmplx.Abs(m[p*n+q]) * cmplx.Abs(m[p*n+q])
			}
		}
		rep.Residual = math.Sqrt(2*off) / frob
		if rep.Residual <= eigTol {
			rep.Converged = true
			break
		}
		if rep.Sweeps >= maxJacobiSweeps {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				r := cmplx.Abs(apq)
				if r <= eigTol*frob/float64(n) {
					continue
				}
				c, s, phase := jacobiRotation(real(m[p*n+p]), real(m[q*n+q]), apq)
				applyJacobi(m, vd, n, p, q, c, s, phase)
			}
		}
	}

	type pair struct {
		w   float64
		col int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{real(m[i*n+i]), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].w < pairs[j].w })

	w = make([]float64, n)
	v = tensor.New(n, n)
	od := v.Data()
	for k, pr := range pairs {
		w[k] = pr.w
		for i := 0; i < n; i++ {
			od[i*n+k] = vd[i*n+pr.col]
		}
	}
	return w, v, rep
}

// jacobiRotation returns the (c, s, phase) of the unitary 2x2 rotation
//
//	G = [[ c,            s*phase ],
//	     [ -s*conj(phase), c     ]]
//
// that diagonalizes the Hermitian block [[app, apq], [conj(apq), aqq]] via
// G* B G, where phase = apq/|apq|.
func jacobiRotation(app, aqq float64, apq complex128) (c, s float64, phase complex128) {
	r := cmplx.Abs(apq)
	phase = apq / complex(r, 0)
	tau := (aqq - app) / (2 * r)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c = 1 / math.Sqrt(1+t*t)
	s = t * c
	return c, s, phase
}

// applyJacobi performs m <- G* m G and v <- v G for the rotation acting on
// rows/columns p and q.
func applyJacobi(m, v []complex128, n, p, q int, c, s float64, phase complex128) {
	cc := complex(c, 0)
	sp := complex(s, 0) * phase
	spc := cmplx.Conj(sp)
	// Columns: m[:, p], m[:, q] <- (m G)
	for i := 0; i < n; i++ {
		mip, miq := m[i*n+p], m[i*n+q]
		m[i*n+p] = cc*mip - spc*miq
		m[i*n+q] = sp*mip + cc*miq
	}
	// Rows: m[p, :], m[q, :] <- (G* m)
	for j := 0; j < n; j++ {
		mpj, mqj := m[p*n+j], m[q*n+j]
		m[p*n+j] = cc*mpj - sp*mqj
		m[q*n+j] = spc*mpj + cc*mqj
	}
	// enforce exact zero and real diagonal for numerical hygiene
	m[p*n+q] = 0
	m[q*n+p] = 0
	m[p*n+p] = complex(real(m[p*n+p]), 0)
	m[q*n+q] = complex(real(m[q*n+q]), 0)
	for i := 0; i < n; i++ {
		vip, viq := v[i*n+p], v[i*n+q]
		v[i*n+p] = cc*vip - spc*viq
		v[i*n+q] = sp*vip + cc*viq
	}
}

// ExpmHermitian returns exp(scale * H) for Hermitian H, computed through
// the eigendecomposition H = V diag(w) V*. Used to build Trotter gates
// e^{-tau h} for imaginary time evolution and e^{-i t h} for real time.
func ExpmHermitian(h *tensor.Dense, scale complex128) *tensor.Dense {
	w, v := EigH(h)
	n := h.Dim(0)
	// exp = V diag(e^{scale w}) V*
	d := tensor.New(n, n)
	for i := 0; i < n; i++ {
		d.Set(cmplx.Exp(scale*complex(w[i], 0)), i, i)
	}
	vh := v.Conj().Transpose(1, 0)
	return tensor.MatMul(tensor.MatMul(v, d), vh)
}
