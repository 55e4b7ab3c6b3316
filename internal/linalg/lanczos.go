package linalg

import (
	"gokoala/internal/obs"
	"math"
	"math/cmplx"
	"math/rand"

	"gokoala/internal/health"
	"gokoala/internal/tensor"
)

// MatVecFunc applies a Hermitian operator to a vector.
type MatVecFunc func(x []complex128) []complex128

// Lanczos computes the smallest eigenvalue and corresponding eigenvector
// of a Hermitian operator of dimension n given only through matvec. It
// runs at most maxIter Krylov steps with full reorthogonalization (robust
// for the modest iteration counts ground-state problems need) and stops
// early when the residual estimate drops below tol.
//
// It is the exact-diagonalization reference for the ITE and VQE accuracy
// studies (paper Figures 13 and 14), where the Hamiltonian is applied
// term by term to state vectors of up to 2^16 amplitudes.
func Lanczos(matvec MatVecFunc, n, maxIter int, tol float64, rng *rand.Rand) (eval float64, evec []complex128) {
	eval, evec, _ = LanczosReport(matvec, n, maxIter, tol, rng)
	return eval, evec
}

// LanczosReport is Lanczos plus a convergence report: Converged when the
// recurrence residual (the last beta) dropped below tol before the
// iteration budget ran out, or when the Krylov basis reached the full
// space dimension (in which case the projection is exact). Exhausting
// maxIter with beta still above tol is recorded in health.nonconverged.
func LanczosReport(matvec MatVecFunc, n, maxIter int, tol float64, rng *rand.Rand) (eval float64, evec []complex128, rep Report) {
	if maxIter > n {
		maxIter = n
	}
	if maxIter < 1 {
		maxIter = 1
	}
	// Random start vector.
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	normalize(v)

	basis := make([][]complex128, 0, maxIter)
	var alphas, betas []float64

	w := v
	for it := 0; it < maxIter; it++ {
		basis = append(basis, w)
		hv := matvec(w)
		a := realDot(w, hv)
		alphas = append(alphas, a)
		// hv <- hv - a w - beta_{prev} basis[it-1]
		for i := range hv {
			hv[i] -= complex(a, 0) * w[i]
		}
		if it > 0 {
			b := betas[it-1]
			prev := basis[it-1]
			for i := range hv {
				hv[i] -= complex(b, 0) * prev[i]
			}
		}
		// Full reorthogonalization for numerical stability.
		for _, u := range basis {
			d := dot(u, hv)
			for i := range hv {
				hv[i] -= d * u[i]
			}
		}
		b := math.Sqrt(normSq(hv))
		rep.Residual = b
		rep.Sweeps = it + 1
		if b < tol {
			rep.Converged = true
			break
		}
		betas = append(betas, b)
		inv := complex(1/b, 0)
		for i := range hv {
			hv[i] *= inv
		}
		w = hv
	}
	// A Krylov basis spanning the full space makes the tridiagonal
	// projection exact regardless of the last residual.
	if len(basis) == n {
		rep.Converged = true
	}
	if !rep.Converged {
		health.CountNonconverged("linalg.lanczos")
	}
	obs.ObserveHist("solver.sweeps", obs.Pow2Bounds, float64(rep.Sweeps),
		obs.Label{Key: "solver", Value: "lanczos"})

	// Diagonalize the tridiagonal projection with the dense Hermitian
	// eigensolver (sizes here are <= maxIter, tiny).
	k := len(basis)
	t := tensor.New(k, k)
	for i := 0; i < k; i++ {
		t.Set(complex(alphas[i], 0), i, i)
		if i+1 < k {
			t.Set(complex(betas[i], 0), i, i+1)
			t.Set(complex(betas[i], 0), i+1, i)
		}
	}
	w2, vecs := EigH(t)
	eval = w2[0]
	evec = make([]complex128, n)
	for j := 0; j < k; j++ {
		c := vecs.At(j, 0)
		if c == 0 {
			continue
		}
		bj := basis[j]
		for i := 0; i < n; i++ {
			evec[i] += c * bj[i]
		}
	}
	normalize(evec)
	return eval, evec, rep
}

func normalize(v []complex128) {
	n := math.Sqrt(normSq(v))
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
}

func dot(a, b []complex128) complex128 {
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

func realDot(a, b []complex128) float64 { return real(dot(a, b)) }
