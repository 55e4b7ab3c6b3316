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

// BenchmarkSVDCutover races the two SVD paths head to head across the
// shorter dimension n, square and 8:1 tall, on a random matrix and on a
// decaying spectrum, building every singular vector (the bidiagonal
// kernel's slowest case). svdBidiagMinCols is read from this sweep.
// Measured 2026-10-16 (Xeon, AVX2, 2 vCPUs, -benchtime 0.3s -count 3,
// medians), time of svdBidiag over svdJacobi, microseconds Jacobi/bidiag:
//
//	n    rand 1:1      decay 1:1    rand 8:1        decay 8:1
//	8    0.73 (18/13)  0.30 (29/9)  0.96 (42/40)    0.80 (43/34)
//	12   0.64 (47/30)  0.22 (77/17) 0.85 (114/97)   0.54 (137/74)
//	16   0.49 (108/53) 0.22 (173/38) 0.97 (227/221) 0.47 (343/160)
//	20   0.44 (164/72) 0.15 (279/41) 0.68 (395/269) 0.37 (869/321)
//	24   0.50 (302/150) 0.13 (642/80) 0.71 (786/555) 0.24 (1380/338)
//	32   0.41 (581/236) 0.12 (1038/128) 0.44 (1804/802) 0.18 (3679/674)
//	48   0.36 (1589/566) 0.11 (3348/353) 0.41 (5710/2317) 0.15 (12436/1888)
//
// The bidiagonal kernel loses no row (8:1 random inputs tie within run-
// to-run noise at n = 8 and 16), and keeping k < n vectors widens its
// lead. Time alone would put the cutover below 8. The benchmark's
// ite_j1j2 is what holds it above: its state is prepared by SVDs of 1 to
// 8 columns, many of them truncations of numerically rank-deficient bond
// matrices that keep a null direction, and which unit vector fills that
// direction is the SVD path's choice, which the un-gauged simple update
// carries into a different state. Its accuracy_digits on seed 1 (run.sh
// --workload ite_j1j2 --seconds 1) by cutover:
//
//	cutover   2       4       8        12 (and up, = Jacobi below 12)
//	digits    2.637   1.787   3.2949   3.2948
//
// A cutover of 8 already changes that state (slightly); from 9 on every
// one of its SVDs stays on Jacobi and its energies stay bit-identical.
// 12 is the smallest measured size above that.
func BenchmarkSVDCutover(b *testing.B) {
	for _, n := range []int{8, 12, 16, 20, 24, 32, 48} {
		for _, aspect := range []int{1, 8} {
			rng := rand.New(rand.NewSource(33))
			for _, in := range []struct {
				name string
				a    *tensor.Dense
			}{
				{"rand", tensor.Rand(rng, aspect*n, n)},
				{"decay", decayed(rng, aspect*n, n)},
			} {
				b.Run(fmt.Sprintf("n%d/%dto1/%s/jacobi", n, aspect, in.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						svdJacobi(in.a)
					}
				})
				b.Run(fmt.Sprintf("n%d/%dto1/%s/bidiag", n, aspect, in.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						svdBidiag(in.a, n)
					}
				})
			}
		}
	}
}

// BenchmarkTruncatedSVD times the truncations the benchmark workloads
// run, keeping k of the singular vector pairs: the 24x24 split of a
// two-site update at r=6, the 81x81 (M=9, r=3) and 144x144 (M=12, r=3)
// zip-up matrices of a BMPS row absorb, and the B factor of a RandSVD
// sketch, 20 rows by 256.
func BenchmarkTruncatedSVD(b *testing.B) {
	for _, tc := range []struct{ m, n, k int }{{24, 24, 6}, {81, 81, 9}, {144, 144, 12}, {20, 256, 16}} {
		a := decayed(rand.New(rand.NewSource(34)), tc.m, tc.n)
		b.Run(fmt.Sprintf("%dx%d/k%d", tc.m, tc.n, tc.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TruncatedSVD(a, tc.k)
			}
		})
	}
}
