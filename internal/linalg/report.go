package linalg

// Report carries the convergence status of an iterative factorization
// (SVD, Jacobi EigH, Lanczos, randomized SVD). The historical
// entry points (SVD, EigH, ...) keep their signatures and record
// non-convergence through internal/health; callers that want to react —
// einsumsvd fallbacks, the Gram→QR degradation — use the *Report
// variants.
type Report struct {
	// Converged is false when the iteration budget was exhausted before
	// the solver's tolerance was met.
	Converged bool
	// Sweeps is the number of sweeps (or iterations) actually performed:
	// rotation sweeps for Jacobi, implicit QR sweeps over a bidiagonal
	// block for the bidiagonal SVD.
	Sweeps int
	// Residual is the solver's convergence measure at exit: the largest
	// normalized off-diagonal |⟨p,q⟩|/(‖p‖‖q‖) for Jacobi SVD, the largest
	// remaining superdiagonal over sigma_max for the bidiagonal SVD (set
	// only when it did not converge), the relative off-diagonal Frobenius
	// mass for EigH, the last Lanczos beta, or the relative subspace probe
	// residual for RandSVD. Zero for direct (non-iterative) paths.
	Residual float64
}
