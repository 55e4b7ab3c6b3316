package tensor

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/pool"
)

// setKernelOrSkip pins a kernel variant for the test, restoring auto
// dispatch afterwards, and skips when the build or CPU cannot honor it
// (purego builds, non-AVX2 hosts).
func setKernelOrSkip(t *testing.T, name string) {
	t.Helper()
	if err := SetKernel(name); err != nil {
		t.Skipf("kernel %q unavailable: %v", name, err)
	}
	t.Cleanup(func() { SetKernel("auto") })
}

func TestSetKernelValidation(t *testing.T) {
	defer SetKernel("auto")
	if err := SetKernel("vliw"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel name")
	}
	if err := SetKernel("go"); err != nil {
		t.Fatalf("SetKernel(go) must always succeed: %v", err)
	}
	if got := KernelVariant(); got != "go" {
		t.Fatalf("KernelVariant after SetKernel(go) = %q, want go", got)
	}
	if err := SetKernel("asm"); err != nil {
		if asmAvailable {
			t.Fatalf("SetKernel(asm) failed on a capable host: %v", err)
		}
	} else if got := KernelVariant(); got != "avx2" {
		t.Fatalf("KernelVariant after SetKernel(asm) = %q, want avx2", got)
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
}

// refGemmGo reproduces the pure-Go GEMM path exactly as gemm dispatches
// it — the gemmSmall cutover at m<4 || k<8, then panel packing with the
// seed's summation order. The forced-go kernel must stay bit-identical
// to this reference: it is the arithmetic every pre-assembly baseline
// was produced with, and the purego build contract in ISSUE/DESIGN
// freezes it.
func refGemmGo(c, a, b []complex128, m, n, k int) {
	if m < gemmSmallGoMinM || k < gemmSmallGoMinK {
		gemmSmall(c, a, b, m, n, k)
		return
	}
	var packBuf [gemmBlockK * gemmBlockN]complex128
	for kk := 0; kk < k; kk += gemmBlockK {
		kMax := min(kk+gemmBlockK, k)
		for jj := 0; jj < n; jj += gemmBlockN {
			jMax := min(jj+gemmBlockN, n)
			kLen := kMax - kk
			pack := packBuf[:kLen*(jMax-jj)]
			for j := jj; j < jMax; j++ {
				col := pack[(j-jj)*kLen : (j-jj+1)*kLen]
				bo := kk*n + j
				for l := range col {
					col[l] = b[bo]
					bo += n
				}
			}
			gemmPanel(c, a, pack, m, n, k, kk, kLen, jj, jMax, kk == 0)
		}
	}
}

var kernelTestSizes = []struct{ m, k, n int }{
	{1, 1, 1}, {2, 3, 4}, {3, 9, 5}, {4, 4, 4}, {4, 5, 2}, {5, 4, 1},
	{5, 7, 9}, {8, 64, 8}, {16, 16, 16}, {17, 65, 33}, {33, 129, 17},
	{64, 64, 64}, {63, 63, 63}, {70, 70, 70},
}

// TestGoKernelBitIdentical pins the bit-identity contract: with the
// kernel forced to "go" (KOALA_KERNEL=go, SetKernel, or a purego build),
// results must match the reference Go path bit for bit — not within
// tolerance — so baselines recorded before the assembly kernels remain
// exactly reproducible.
func TestGoKernelBitIdentical(t *testing.T) {
	setKernelOrSkip(t, "go")
	rng := rand.New(rand.NewSource(21))
	for _, sz := range kernelTestSizes {
		a := Rand(rng, sz.m, sz.k)
		b := Rand(rng, sz.k, sz.n)
		got := MatMul(a, b)
		want := make([]complex128, sz.m*sz.n)
		refGemmGo(want, a.Data(), b.Data(), sz.m, sz.n, sz.k)
		for i, v := range got.Data() {
			if v != want[i] {
				t.Fatalf("forced-go MatMul %v differs from reference at %d: %v != %v", sz, i, v, want[i])
			}
		}
	}
}

// kernelTol is the documented asm-vs-Go tolerance (DESIGN.md section
// 13): the assembly contracts multiply-adds with FMA and reduces YMM
// lanes pairwise, so individual elements drift from the serial Go sums
// by a few ULPs per k-step. The bound below is loose by design —
// forward-error growth is O(k)·eps on unit-scale inputs — and holds
// with two orders of magnitude to spare on the randomized suite.
func kernelTol(k int) float64 { return 1e-13 * float64(k+1) }

// TestAsmGEMMWithinTolerance compares the assembly GEMM against the
// forced-go kernel on randomized shapes spanning every dispatch regime
// (streaming small kernel, padded odd-k panels, odd trailing columns,
// single leftover rows).
func TestAsmGEMMWithinTolerance(t *testing.T) {
	setKernelOrSkip(t, "asm")
	rng := rand.New(rand.NewSource(22))
	for _, sz := range kernelTestSizes {
		a := Rand(rng, sz.m, sz.k)
		b := Rand(rng, sz.k, sz.n)
		got := MatMul(a, b)
		SetKernel("go")
		want := MatMul(a, b)
		SetKernel("asm")
		tol := kernelTol(sz.k)
		for i, v := range got.Data() {
			if !closeTo(v, want.Data()[i], tol) {
				t.Fatalf("asm MatMul %v element %d: %v, go %v (tol %g)", sz, i, v, want.Data()[i], tol)
			}
		}
	}
}

// TestAsmGEMMWorkerSplitInvariance is the contract the single-row
// assembly kernel and batchGEMM's hoisted dispatch exist for: the
// worker split slices the bt*m rows at arbitrary boundaries (including
// partial matrices with very few rows at chunk edges), changing both
// the row-pair/single-row kernel mix and the per-call row counts, and
// results must not move by a single bit when that split changes. The
// {3,16,128,64} shape is the regression case for the hoist: its grain
// (65536/(n*k)+1 = 9) splits 48 rows into chunks whose partial-matrix
// calls have fewer rows than the asm cutover, so a per-call kernel
// decision would flip those rows to the streaming kernel.
func TestAsmGEMMWorkerSplitInvariance(t *testing.T) {
	setKernelOrSkip(t, "asm")
	defer pool.SetWorkers(0)
	rng := rand.New(rand.NewSource(23))
	for _, sz := range []struct{ bt, m, k, n int }{
		{1, 64, 64, 64}, {3, 17, 33, 9}, {2, 7, 65, 31}, {4, 5, 9, 5},
		{3, 16, 128, 64},
	} {
		a := Rand(rng, sz.bt, sz.m, sz.k)
		b := Rand(rng, sz.bt, sz.k, sz.n)
		pool.SetWorkers(1)
		base := New(sz.bt, sz.m, sz.n)
		BatchMatMulInto(base, a, b)
		for _, workers := range []int{2, 3, 5} {
			pool.SetWorkers(workers)
			got := New(sz.bt, sz.m, sz.n)
			BatchMatMulInto(got, a, b)
			for i, v := range got.Data() {
				if v != base.Data()[i] {
					t.Fatalf("workers=%d %v: element %d moved %v -> %v", workers, sz, i, base.Data()[i], v)
				}
			}
		}
	}
}

// TestAsmScatterWithinTolerance drives the axpy microkernels behind
// BatchMatMulScatter's general-k path against the forced-go kernels,
// and checks the asm results are themselves worker-split invariant.
func TestAsmScatterWithinTolerance(t *testing.T) {
	setKernelOrSkip(t, "asm")
	defer pool.SetWorkers(0)
	rng := rand.New(rand.NewSource(24))
	for _, sz := range []struct{ bt, m, k, n int }{
		{2, 4, 5, 8}, {1, 7, 9, 12}, {3, 5, 64, 16}, {2, 3, 7, 5},
	} {
		a := Rand(rng, sz.bt, sz.m, sz.k)
		b := Rand(rng, sz.bt, sz.k, sz.n)
		bMap := make([]int, sz.bt)
		iMap := make([]int, sz.m)
		jMap := rng.Perm(sz.n)
		for t := range bMap {
			bMap[t] = t * sz.m * sz.n
		}
		for i := range iMap {
			iMap[i] = i * sz.n
		}
		total := sz.bt * sz.m * sz.n

		pool.SetWorkers(1)
		got := make([]complex128, total)
		BatchMatMulScatter(got, a, b, bMap, iMap, jMap)

		SetKernel("go")
		want := make([]complex128, total)
		BatchMatMulScatter(want, a, b, bMap, iMap, jMap)
		SetKernel("asm")

		tol := kernelTol(sz.k)
		for i := range got {
			if !closeTo(got[i], want[i], tol) {
				t.Fatalf("asm scatter %v element %d: %v, go %v", sz, i, got[i], want[i])
			}
		}
		for _, workers := range []int{2, 4} {
			pool.SetWorkers(workers)
			again := make([]complex128, total)
			BatchMatMulScatter(again, a, b, bMap, iMap, jMap)
			for i := range again {
				if again[i] != got[i] {
					t.Fatalf("asm scatter %v workers=%d: element %d moved", sz, workers, i)
				}
			}
		}
	}
}

// mixedTol is the complex64 analog of kernelTol: float32 arithmetic
// carries ~1e-7 relative error per operation, growing with the
// contraction length.
func mixedTol(k int) float64 { return 2e-6 * float64(k+1) }

// TestMixedMatMulWithinF32Tolerance checks the complex64 compute path
// (both kernel variants) against the full-precision product, and that
// the mixed result is worker-split invariant.
func TestMixedMatMulWithinF32Tolerance(t *testing.T) {
	defer SetKernel("auto")
	defer pool.SetWorkers(0)
	rng := rand.New(rand.NewSource(26))
	for _, sz := range kernelTestSizes {
		a := Rand(rng, sz.m, sz.k)
		b := Rand(rng, sz.k, sz.n)
		want := MatMul(a, b)
		tol := mixedTol(sz.k)
		for _, kern := range []string{"go", "asm"} {
			if SetKernel(kern) != nil {
				continue
			}
			got := MatMulMixed(a, b)
			for i, v := range got.Data() {
				if !closeTo(v, want.Data()[i], tol) {
					t.Fatalf("kernel=%s MatMulMixed %v element %d: %v, full %v (tol %g)", kern, sz, i, v, want.Data()[i], tol)
				}
			}
		}
	}
	// Worker-split invariance of the batched mixed kernel. The second
	// shape's grain is small enough that chunks slice partial matrices
	// below the asm cutover, exercising the hoisted kernel decision.
	for _, kern := range []string{"go", "asm"} {
		if SetKernel(kern) != nil {
			continue
		}
		for _, sz := range []struct{ bt, m, k, n int }{
			{3, 17, 33, 9}, {3, 16, 128, 64},
		} {
			a := Rand(rng, sz.bt, sz.m, sz.k)
			b := Rand(rng, sz.bt, sz.k, sz.n)
			pool.SetWorkers(1)
			base := New(sz.bt, sz.m, sz.n)
			BatchMatMulMixedInto(base, a, b)
			for _, workers := range []int{2, 5} {
				pool.SetWorkers(workers)
				got := New(sz.bt, sz.m, sz.n)
				BatchMatMulMixedInto(got, a, b)
				for i, v := range got.Data() {
					if v != base.Data()[i] {
						t.Fatalf("kernel=%s mixed %v workers=%d: element %d moved", kern, sz, workers, i)
					}
				}
			}
		}
	}
}

// TestJacobiRotateKernels checks the rotation apply: the forced-go
// variant must match the inline reference bit for bit, the asm variant
// within the elementwise tolerance (no reduction, so the bound does not
// grow with n), and the rotation must preserve column norms.
func TestJacobiRotateKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 3, 7, 64, 65} {
		p0 := Rand(rng, n).Data()
		q0 := Rand(rng, n).Data()
		c, s := 0.8, 0.6
		phase := complex(0.28, -0.96)

		cc := complex(c, 0)
		sp := complex(s, 0) * phase
		spc := complex(real(sp), -imag(sp))
		wantP := make([]complex128, n)
		wantQ := make([]complex128, n)
		for i := 0; i < n; i++ {
			wantP[i] = cc*p0[i] - spc*q0[i]
			wantQ[i] = sp*p0[i] + cc*q0[i]
		}

		if err := SetKernel("go"); err != nil {
			t.Fatal(err)
		}
		p := append([]complex128(nil), p0...)
		q := append([]complex128(nil), q0...)
		JacobiRotate(p, q, c, s, phase)
		for i := range p {
			if p[i] != wantP[i] || q[i] != wantQ[i] {
				t.Fatalf("go JacobiRotate n=%d element %d differs from reference", n, i)
			}
		}

		if SetKernel("asm") == nil {
			p = append([]complex128(nil), p0...)
			q = append([]complex128(nil), q0...)
			JacobiRotate(p, q, c, s, phase)
			for i := range p {
				if !closeTo(p[i], wantP[i], 1e-14) || !closeTo(q[i], wantQ[i], 1e-14) {
					t.Fatalf("asm JacobiRotate n=%d element %d: p=%v want %v, q=%v want %v",
						n, i, p[i], wantP[i], q[i], wantQ[i])
				}
			}
		}
		SetKernel("auto")
	}
	SetKernel("auto")
}

// kernelVariants runs f once per kernel variant the host can serve
// ("go" always, "asm" when available), restoring auto dispatch after.
func kernelVariants(t *testing.T, f func(variant string)) {
	t.Helper()
	defer SetKernel("auto")
	for _, variant := range []string{"go", "asm"} {
		if SetKernel(variant) != nil {
			continue
		}
		f(variant)
	}
}

// kernelLens covers the empty and single-element columns, both odd
// tails of the assembly (one YMM, one XMM, both) and a long column.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 65, 81, 127, 512}

// TestColGramKernels checks the fused Gram triple against the three
// plain reductions it replaces: the forced-go variant bit for bit
// (it is the same serial sum), the assembly within kernelTol(n).
func TestColGramKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range kernelLens {
		p := Rand(rng, n+1).Data()[:n]
		q := Rand(rng, n+1).Data()[:n]
		var wantA, wantB float64
		var wantG complex128
		for i := range p {
			wantA += real(p[i])*real(p[i]) + imag(p[i])*imag(p[i])
			wantB += real(q[i])*real(q[i]) + imag(q[i])*imag(q[i])
			wantG += complex(real(p[i]), -imag(p[i])) * q[i]
		}
		kernelVariants(t, func(variant string) {
			alpha, beta, gamma := ColGram(p, q)
			tol := kernelTol(n)
			if variant == "go" {
				tol = 0
			}
			if math.Abs(alpha-wantA) > tol || math.Abs(beta-wantB) > tol || !closeTo(gamma, wantG, tol) {
				t.Fatalf("%s ColGram n=%d: got (%v, %v, %v), want (%v, %v, %v)",
					variant, n, alpha, beta, gamma, wantA, wantB, wantG)
			}
			// The pair (p, p) is its own norm: gamma must be real and
			// equal alpha in either variant's summation order.
			a2, b2, g2 := ColGram(p, p)
			if a2 != b2 || math.Abs(real(g2)-a2) > tol || math.Abs(imag(g2)) > tol {
				t.Fatalf("%s ColGram(p, p) n=%d inconsistent: %v %v %v", variant, n, a2, b2, g2)
			}
		})
	}
}

// reflectorRef applies H = I - tau v v* to the rows-by-cols block of a
// (row stride `stride`) with plain loops: the specification both
// reflector passes are checked against.
func reflectorRef(a []complex128, stride, cols int, v []complex128, tau float64) (w []complex128) {
	w = make([]complex128, cols)
	for i, x := range v {
		for c := 0; c < cols; c++ {
			w[c] += complex(real(x), -imag(x)) * a[i*stride+c]
		}
	}
	for i, x := range v {
		for c := 0; c < cols; c++ {
			a[i*stride+c] -= complex(tau, 0) * x * w[c]
		}
	}
	return w
}

// TestReflectorPassKernels checks the two contiguous-row passes of a
// Householder application on sub-blocks of a wider matrix (stride >
// cols, so a pass that strays outside its block corrupts a sentinel):
// asm against the reference within kernelTol(rows), the projection
// independent of how the columns are split, the update independent of
// how the rows are split, and a unit-norm v with tau = 2 an involution.
func TestReflectorPassKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, rows := range []int{0, 1, 2, 3, 8, 65} {
		for _, cols := range []int{0, 1, 2, 3, 7, 64, 81} {
			stride := cols + 3
			a0 := Rand(rng, rows*stride+1).Data()
			v := Rand(rng, rows+1).Data()[:rows]
			var nv2 float64
			for _, x := range v {
				nv2 += real(x)*real(x) + imag(x)*imag(x)
			}
			tau := 0.0
			if nv2 > 0 {
				tau = 2 / nv2
			}
			want := append([]complex128(nil), a0...)
			wantW := reflectorRef(want, stride, cols, v, tau)

			kernelVariants(t, func(variant string) {
				tol := kernelTol(rows) * (1 + tau)
				a := append([]complex128(nil), a0...)
				w := make([]complex128, cols)
				ReflectorProject(w, a, stride, v)
				for c := range w {
					if !closeTo(w[c], wantW[c], tol) {
						t.Fatalf("%s ReflectorProject %dx%d col %d: %v want %v", variant, rows, cols, c, w[c], wantW[c])
					}
				}
				// Column-split invariance: each w[c] is its own reduction.
				if rows > 0 && cols > 2 {
					split := make([]complex128, cols)
					h := cols / 2
					ReflectorProject(split[:h], a, stride, v)
					ReflectorProject(split[h:], a[h:], stride, v)
					for c := range w {
						if split[c] != w[c] {
							t.Fatalf("%s ReflectorProject %dx%d: column split changed w[%d]", variant, rows, cols, c)
						}
					}
				}
				ReflectorUpdate(a, stride, v, w, tau)
				for i := range a {
					if !closeTo(a[i], want[i], tol*float64(cols+1)) {
						t.Fatalf("%s ReflectorUpdate %dx%d element %d: %v want %v", variant, rows, cols, i, a[i], want[i])
					}
				}
				// Row-split invariance of the elementwise update.
				if rows > 1 {
					b := append([]complex128(nil), a0...)
					h := rows / 2
					ReflectorUpdate(b, stride, v[:h], w, tau)
					ReflectorUpdate(b[h*stride:], stride, v[h:], w, tau)
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("%s ReflectorUpdate %dx%d: row split changed element %d", variant, rows, cols, i)
						}
					}
				}
				// H is an involution: applying it twice restores the block.
				ReflectorProject(w, a, stride, v)
				ReflectorUpdate(a, stride, v, w, tau)
				for i := range a {
					if !closeTo(a[i], a0[i], 1e-12*float64(rows+1)) {
						t.Fatalf("%s reflector twice %dx%d: element %d not restored", variant, rows, cols, i)
					}
				}
			})
		}
	}
}

// TestReflectorPassesSkipZeroRows pins the zero-coefficient contract of
// both variants: a row whose reflector entry is zero is neither read by
// the projection nor written by the update, so the NaN and Inf planted
// there reach nothing else (0 * Inf would be NaN), in every position of
// the assembly's row pairs and its odd tail.
func TestReflectorPassesSkipZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const rows, cols, stride = 7, 5, 6
	for _, zeros := range [][]int{{0}, {1}, {0, 1}, {2, 5}, {6}, {0, 1, 2, 3, 4, 5, 6}} {
		a0 := Rand(rng, rows*stride).Data()
		v := Rand(rng, rows).Data()
		for _, i := range zeros {
			v[i] = 0
			for c := 0; c < cols; c++ {
				a0[i*stride+c] = complex(math.Inf(1), math.NaN())
			}
		}
		isZero := func(i int) bool { return v[i] == 0 }
		kernelVariants(t, func(variant string) {
			a := append([]complex128(nil), a0...)
			w := make([]complex128, cols)
			ReflectorProject(w, a, stride, v)
			for c, x := range w {
				if cmplx.IsNaN(x) || cmplx.IsInf(x) {
					t.Fatalf("%s zeros %v: w[%d] = %v picked up a skipped row", variant, zeros, c, x)
				}
			}
			ReflectorUpdate(a, stride, v, w, 0.5)
			for i := 0; i < rows; i++ {
				for c := 0; c < cols; c++ {
					x := a[i*stride+c]
					if finite := !cmplx.IsNaN(x) && !cmplx.IsInf(x); finite == isZero(i) {
						t.Fatalf("%s zeros %v: row %d col %d = %v after the update", variant, zeros, i, c, x)
					}
				}
			}
		})
	}
}
