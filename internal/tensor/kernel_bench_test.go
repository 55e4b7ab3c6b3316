package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatMul(b *testing.B, m, n, k int) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(rng, m, k)
	y := Rand(rng, k, n)
	b.SetBytes(int64(m*n*k) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
	reportGFlops(b, int64(m)*int64(n)*int64(k))
}

// reportGFlops attaches the realized arithmetic rate to a GEMM-shaped
// benchmark: macsPerOp complex multiply-adds per iteration, counted as
// 8 real flops each.
func reportGFlops(b *testing.B, macsPerOp int64) {
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(8*float64(macsPerOp)*float64(b.N)/secs/1e9, "GFLOP/s")
}

func BenchmarkGEMM64(b *testing.B)  { benchMatMul(b, 64, 64, 64) }
func BenchmarkGEMM128(b *testing.B) { benchMatMul(b, 128, 128, 128) }
func BenchmarkGEMM256(b *testing.B) { benchMatMul(b, 256, 256, 256) }

// Tall/skinny shapes with small contraction depth: the block shapes the
// symmetric backend's per-sector GEMMs produce (tall charge sectors,
// bond-dimension-sized k), where panel packing overhead is proportionally
// largest.
func BenchmarkGEMMTallK4(b *testing.B)  { benchMatMul(b, 256, 8, 4) }
func BenchmarkGEMMTallK8(b *testing.B)  { benchMatMul(b, 256, 16, 8) }
func BenchmarkGEMMTallK16(b *testing.B) { benchMatMul(b, 512, 16, 16) }

// BenchmarkGEMMCutover races the two candidate kernels for the
// small-(m,k) corner head to head on each shape: the streaming Go loop
// (gemmSmall) against the asm packed-panel kernel (skipped without
// AVX2). The asmGemmProfitable thresholds in matmul.go are set from
// this sweep; rerun with -bench GEMMCutover -benchtime 0.2s after
// touching either kernel.
func BenchmarkGEMMCutover(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range []struct{ m, n, k int }{
		{2, 64, 8}, {3, 64, 8}, {4, 64, 8}, {6, 64, 8}, {8, 64, 8},
		{8, 64, 4}, {8, 64, 5}, {8, 64, 6}, {8, 64, 7},
		{4, 64, 4}, {4, 64, 6}, {16, 64, 6}, {32, 64, 6},
	} {
		macs := int64(s.m) * int64(s.n) * int64(s.k)
		c := make([]complex128, s.m*s.n)
		x := Rand(rng, s.m, s.k).Data()
		y := Rand(rng, s.k, s.n).Data()
		b.Run(fmt.Sprintf("small/m%dn%dk%d", s.m, s.n, s.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmSmall(c, x, y, s.m, s.n, s.k)
			}
			reportGFlops(b, macs)
		})
		if !useAsm() {
			continue
		}
		b.Run(fmt.Sprintf("asm/m%dn%dk%d", s.m, s.n, s.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmAsm(c, x, y, s.m, s.n, s.k)
			}
			reportGFlops(b, macs)
		})
	}
}

// BenchmarkGEMMMixed is the complex64 sketch-stage kernel on the
// BenchmarkGEMM256 shape (same macs, half the bytes per element).
func BenchmarkGEMMMixed256(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Rand(rng, 256, 256)
	y := Rand(rng, 256, 256)
	b.SetBytes(256 * 256 * 256 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulMixed(x, y)
	}
	reportGFlops(b, 256*256*256)
}

// BenchmarkGEMMBatchSmall is the BMPS regime: many small multiplies.
func BenchmarkGEMMBatchSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Rand(rng, 16, 32, 64)
	y := Rand(rng, 16, 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchMatMul(x, y)
	}
}

func BenchmarkTranspose2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := Rand(rng, 512, 512)
	b.SetBytes(512 * 512 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Transpose(1, 0)
	}
}

// BenchmarkTranspose4D permutes the axes of a double-layer PEPS
// intermediate, the dominant einsum data-movement shape.
func BenchmarkTranspose4D(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := Rand(rng, 16, 16, 16, 16)
	b.SetBytes(16 * 16 * 16 * 16 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Transpose(3, 1, 2, 0)
	}
}

// reportGBs reports the bytes a kernel reads and writes per second.
func reportGBs(b *testing.B, bytesPerOp int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(bytesPerOp)*float64(b.N)/s/1e9, "GB/s")
	}
}

// BenchmarkColGram is the Jacobi SVD's convergence test on the column
// lengths it sees: a small two-site update, the 81 of an M=9 r=3 BMPS
// bond (both L1-resident), and a tall RandSVD panel.
func BenchmarkColGram(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 81, 512} {
		p, q := Rand(rng, n).Data(), Rand(rng, n).Data()
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				alpha, _, _ := ColGram(p, q)
				sink += alpha
			}
			_ = sink
			reportGBs(b, int64(2*16*n))
		})
	}
}

// BenchmarkJacobiRotate is the rotation apply on the same lengths
// (both columns read and written).
func BenchmarkJacobiRotate(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{16, 81, 512} {
		p, q := Rand(rng, n).Data(), Rand(rng, n).Data()
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				JacobiRotate(p, q, 0.8, 0.6, complex(0.28, -0.96))
			}
			reportGBs(b, int64(4*16*n))
		})
	}
}
