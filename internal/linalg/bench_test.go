package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gokoala/internal/tensor"
)

// decayed returns an m-by-n matrix G1 diag(sigma) G2 with Gaussian G1, G2
// and sigma_i = 10^(-12 i/k): the rapidly decaying spectrum of a PEPS
// bond matrix, where most column pairs converge in the first sweeps.
func decayed(rng *rand.Rand, m, n int) *tensor.Dense {
	k := min(m, n)
	d := tensor.New(k, k)
	for i := 0; i < k; i++ {
		d.Set(complex(math.Pow(10, -12*float64(i)/float64(k)), 0), i, i)
	}
	return tensor.MatMul(tensor.MatMul(tensor.Rand(rng, m, k), d), tensor.Rand(rng, k, n))
}

// BenchmarkSVD times the thin SVD on the shapes the paper's algorithms
// produce: the 24x24 of a QR-SVD two-site update, the 81x81 (M=9, r=3)
// and 162x81 of a BMPS row absorb, and a tall RandSVD-style panel.
func BenchmarkSVD(b *testing.B) {
	for _, sz := range [][2]int{{24, 24}, {81, 81}, {162, 81}, {512, 64}} {
		a := tensor.Rand(rand.New(rand.NewSource(31)), sz[0], sz[1])
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			b.ReportAllocs()
			sweeps := 0
			for i := 0; i < b.N; i++ {
				_, _, _, rep := SVDReport(a)
				sweeps += rep.Sweeps
			}
			b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
		})
	}
}

// BenchmarkQR times Householder QR on the QRSplit shape of a rank-6
// two-site update (216x12) and on a square boundary block.
func BenchmarkQR(b *testing.B) {
	for _, sz := range [][2]int{{216, 12}, {81, 81}} {
		a := tensor.Rand(rand.New(rand.NewSource(32)), sz[0], sz[1])
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				QR(a)
			}
		})
	}
}

// BenchmarkSVDPrecondCutover races the two paths of svdJacobi head to
// head across the shorter dimension n, square and 8:1 tall, on a random
// matrix (the slowest case for Jacobi) and on a decaying spectrum (the
// common one). svdPrecondMinCols is read from this sweep: the smallest n
// from which the preconditioned path wins or ties every row. Measured
// 2026-09-30 (Xeon 2.6 GHz, AVX2, -cpu 2, -benchtime 0.5s), time of the
// preconditioned path over the plain one, sweeps plain -> preconditioned:
//
//	n    rand 1:1    rand 8:1    decay 1:1       decay 8:1
//	8    1.01 (6->5) 1.21 (5->5) 0.77 (8->5)     0.96 (7->5)
//	12   1.07 (6->6) 1.07 (6->6) 0.72 (10->6)    0.71 (10->6)
//	16   1.00 (7->6) 0.98 (6->6) 0.57 (12->6)    0.60 (12->7)
//	20   1.02 (7->7) 0.86 (7->7) 0.54 (16->7)    0.51 (15->7)
//	24   0.94 (7->7) 0.80 (7->7) 0.50 (17->7)    0.42 (16->7)
//	32   0.97 (8->7) 0.73 (7->7) 0.45 (20->7)    0.34 (19->7)
//	48   0.99 (8->7) 0.66 (8->8) 0.43 (23->8)    0.30 (23->8)
//
// Below 16 the QR costs more than the sweeps it saves on random inputs
// (7% at n=12, 21% at n=8 tall); from 16 on no row loses by more than
// run-to-run noise and the decaying spectra win 1.7-3x. The benchmark
// workloads (ite_j1j2, evolve_qr, evolve_gram: SVDs of 2x2 to 24x24) do
// not tell cutovers 0 to 24 apart in time, but ite_j1j2 does in
// accuracy_digits, the error of its m=4 energy on the state its
// preparation sweeps produce (benchmark/run.sh --workload ite_j1j2, the
// same on seeds 1, 2, 3 and 7; parent 2.533, bound -15%):
//
//	cutover   0,2     4       8,12,16
//	digits    2.020   2.707   3.297
//
// Both paths return a correct SVD there. They differ in the unit vectors
// that fill U and V where sigma vanishes: the first sweep from the
// product state truncates 21 bond matrices of numerical rank 1 to rank
// 2, the kept null vector is a free choice (Gram-Schmidt completes U on
// the plain path, V on the preconditioned one), and the un-gauged simple
// update carries that choice into a different state. A cutover below 8
// therefore fails the benchmark's accuracy bound.
func BenchmarkSVDPrecondCutover(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16, 20, 24, 32, 48} {
		for _, aspect := range []int{1, 8} {
			rng := rand.New(rand.NewSource(33))
			for _, in := range []struct {
				name string
				a    *tensor.Dense
			}{
				{"rand", tensor.Rand(rng, aspect*n, n)},
				{"decay", decayed(rng, aspect*n, n)},
			} {
				for _, precond := range []bool{false, true} {
					path := "plain"
					if precond {
						path = "precond"
					}
					b.Run(fmt.Sprintf("n%d/%dto1/%s/%s", n, aspect, in.name, path), func(b *testing.B) {
						sweeps := 0
						for i := 0; i < b.N; i++ {
							_, _, _, rep := svdJacobi(in.a, precond)
							sweeps += rep.Sweeps
						}
						b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
					})
				}
			}
		}
	}
}
