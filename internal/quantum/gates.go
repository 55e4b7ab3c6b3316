// Package quantum provides quantum gates, local observables, and lattice
// Hamiltonians shared by the PEPS and state-vector simulators. Gate
// conventions follow the paper: a one-qubit gate is a 2x2 matrix g_{ij}
// (out, in) and a two-qubit gate is a rank-4 tensor g_{i1 i2 j1 j2} with
// the two output indices first (paper equation 2).
package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"

	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// I returns the single-qubit identity gate.
func I() *tensor.Dense { return tensor.Eye(2) }

// X returns the Pauli-X gate.
func X() *tensor.Dense { return tensor.FromData([]complex128{0, 1, 1, 0}, 2, 2) }

// Y returns the Pauli-Y gate.
func Y() *tensor.Dense { return tensor.FromData([]complex128{0, -1i, 1i, 0}, 2, 2) }

// Z returns the Pauli-Z gate.
func Z() *tensor.Dense { return tensor.FromData([]complex128{1, 0, 0, -1}, 2, 2) }

// H returns the Hadamard gate.
func H() *tensor.Dense {
	s := complex(1/math.Sqrt2, 0)
	return tensor.FromData([]complex128{s, s, s, -s}, 2, 2)
}

// S returns the phase gate diag(1, i).
func S() *tensor.Dense { return tensor.FromData([]complex128{1, 0, 0, 1i}, 2, 2) }

// T returns the pi/8 gate diag(1, e^{i pi/4}).
func T() *tensor.Dense {
	return tensor.FromData([]complex128{1, 0, 0, cmplx.Exp(1i * math.Pi / 4)}, 2, 2)
}

// SqrtX is sqrt(X), one of the single-qubit gates used by Google-style
// random quantum circuits (paper Figure 10 workload).
func SqrtX() *tensor.Dense {
	return tensor.FromData([]complex128{0.5 + 0.5i, 0.5 - 0.5i, 0.5 - 0.5i, 0.5 + 0.5i}, 2, 2)
}

// SqrtY is sqrt(Y), a second RQC single-qubit gate.
func SqrtY() *tensor.Dense {
	return tensor.FromData([]complex128{0.5 + 0.5i, -0.5 - 0.5i, 0.5 + 0.5i, 0.5 + 0.5i}, 2, 2)
}

// SqrtW is sqrt(W) with W = (X+Y)/sqrt(2), computed as V sqrt(D) V* from
// the eigendecomposition of the Hermitian unitary W (principal branch).
func SqrtW() *tensor.Dense {
	w := X().Add(Y()).Scale(complex(1/math.Sqrt2, 0))
	vals, vecs := linalg.EigH(w)
	d := tensor.New(2, 2)
	for i := 0; i < 2; i++ {
		d.Set(cmplx.Sqrt(complex(vals[i], 0)), i, i)
	}
	return tensor.MatMul(tensor.MatMul(vecs, d), vecs.Conj().Transpose(1, 0))
}

// Rx returns exp(-i theta X / 2).
func Rx(theta float64) *tensor.Dense {
	c, s := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
	return tensor.FromData([]complex128{c, s, s, c}, 2, 2)
}

// Ry returns exp(-i theta Y / 2), the rotation used by the paper's VQE
// ansatz layers.
func Ry(theta float64) *tensor.Dense {
	c, s := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
	return tensor.FromData([]complex128{c, -s, s, c}, 2, 2)
}

// Rz returns exp(-i theta Z / 2).
func Rz(theta float64) *tensor.Dense {
	return tensor.FromData([]complex128{cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))}, 2, 2)
}

// Two-qubit gates are returned as 4x4 matrices in the basis
// |00>, |01>, |10>, |11> (first qubit is the more significant index).
// Use Gate4 to view them as rank-4 tensors.

// CX returns the controlled-NOT gate (control on the first qubit).
func CX() *tensor.Dense {
	return tensor.FromData([]complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
		0, 0, 1, 0,
	}, 4, 4)
}

// CZ returns the controlled-Z gate.
func CZ() *tensor.Dense {
	return tensor.FromData([]complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, -1,
	}, 4, 4)
}

// SWAP returns the two-qubit swap gate.
func SWAP() *tensor.Dense {
	return tensor.FromData([]complex128{
		1, 0, 0, 0,
		0, 0, 1, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
	}, 4, 4)
}

// ISwap is the entangling gate used by the paper's RQC benchmark.
func ISwap() *tensor.Dense {
	return tensor.FromData([]complex128{
		1, 0, 0, 0,
		0, 0, 1i, 0,
		0, 1i, 0, 0,
		0, 0, 0, 1,
	}, 4, 4)
}

// Gate4 reshapes a 4x4 two-qubit gate matrix into the rank-4 tensor
// g[i1, i2, j1, j2] used by tensor-network contractions.
func Gate4(g *tensor.Dense) *tensor.Dense {
	if g.Rank() == 4 {
		return g
	}
	return g.Reshape(2, 2, 2, 2)
}

// RandomUnitary returns a Haar-ish random d-by-d unitary obtained by
// QR-orthogonalizing a random complex matrix.
func RandomUnitary(rng *rand.Rand, d int) *tensor.Dense {
	q, r := linalg.QR(tensor.Rand(rng, d, d))
	// Fix the phase ambiguity so the distribution is closer to Haar.
	for j := 0; j < d; j++ {
		rj := r.At(j, j)
		if rj == 0 {
			continue
		}
		ph := rj / complex(cmplx.Abs(rj), 0)
		for i := 0; i < d; i++ {
			q.Set(q.At(i, j)*ph, i, j)
		}
	}
	return q
}
