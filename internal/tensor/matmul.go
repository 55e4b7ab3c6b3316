package tensor

import (
	"fmt"
	"sync/atomic"

	"gokoala/internal/pool"
)

// flopCount accumulates complex multiply-add counts (each counted as one
// "flop pair", i.e. 8 real flops) performed by MatMul and BatchMatMul.
// The counter backs the empirical complexity fits for Table II.
var flopCount atomic.Int64

// FlopCount returns the cumulative number of complex fused multiply-adds
// performed by matrix multiplication since process start or the last call
// to ResetFlopCount.
func FlopCount() int64 { return flopCount.Load() }

// ResetFlopCount zeroes the global flop counter.
func ResetFlopCount() { flopCount.Store(0) }

// AddFlops adds n complex multiply-adds to the global counter. Exposed so
// non-GEMM kernels (e.g. distributed collectives' local reductions) can
// participate in the same accounting.
func AddFlops(n int64) { flopCount.Add(n) }

const (
	gemmBlockK = 64 // k-panel height
	gemmBlockN = 64 // n-panel width; one panel of B is 64KB, L2-resident
)

// gemmSmall cutover: shapes too small to amortize panel packing skip it
// and run the streaming i-k-j kernel. The Go path's cutover (m<4 || k<8)
// is frozen: it predates the fused scatter kernels, but moving it would
// change which loop structure — and therefore which rounding — serves
// the affected shapes, breaking the purego/KOALA_KERNEL=go bit-identity
// contract with existing baselines. The asm path has no such contract
// (it is already tolerance-gated against Go), so its cutover is set from
// measurement: BenchmarkGEMMCutover in kernel_bench_test.go races the
// two kernels head to head and shows three effects governing the
// crossing on this AVX2 Xeon. Packing a B panel costs O(k*n) moves paid
// once per panel, so it amortizes over the row count — the asm kernel
// only wins from m>=8 and needs m*k>=64 (at m=8 the crossing sits at
// k~8, by m=16 it has moved down to k=4). A fixed per-call pack/setup
// cost additionally needs ~4k total multiply-adds to disappear (at
// m=8,n=16,k=8 the asm kernel still loses 1.7x despite m*k=64).
const (
	gemmSmallGoMinM = 4 // frozen with the Go panel kernel's rounding
	gemmSmallGoMinK = 8
	asmGemmMinM     = 8    // rows to amortize the per-panel B pack
	asmGemmMinK     = 4    // below this the dup/swap FMA chain is pack-bound
	asmGemmMinMK    = 64   // m*k floor: m8k4 loses, m16k4 wins
	asmGemmMinMacs  = 4096 // m*n*k floor covering fixed pack/setup cost
)

// asmGemmProfitable reports whether the packed-panel asm kernel beats
// the streaming loop for this shape (thresholds measured by
// BenchmarkGEMMCutover; shared by the complex64 mixed kernel, whose
// crossover behaves the same way at half the element width).
func asmGemmProfitable(m, n, k int) bool {
	return m >= asmGemmMinM && k >= asmGemmMinK &&
		m*k >= asmGemmMinMK && m*n*k >= asmGemmMinMacs
}

// MatMul returns the matrix product a@b of two rank-2 tensors.
func MatMul(a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires matrices, got ranks %d and %d", a.Rank(), b.Rank()))
	}
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes the matrix product a@b into out, which must be an
// m-by-n tensor. out is overwritten, never read: the kernel stores its
// first k-panel and accumulates the rest, so out may be an uninitialized
// or recycled buffer. Parallel engines use it to write worker results
// directly into a shared output instead of allocating a temporary and
// copying; the einsum plan executor uses it to run GEMMs on pooled
// scratch without zeroing.
func MatMulInto(out, a, b *Dense) {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto requires matrices, got ranks %d, %d, %d", out.Rank(), a.Rank(), b.Rank()))
	}
	m, ka := a.shape[0], a.shape[1]
	kb, n := b.shape[0], b.shape[1]
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto output shape %v, want [%d %d]", out.shape, m, n))
	}
	gemm(out.data, a.data, b.data, m, n, ka)
}

// BatchMatMul multiplies batch stacks of matrices: a has shape [bt, m, k],
// b has shape [bt, k, n], and the result has shape [bt, m, n].
func BatchMatMul(a, b *Dense) *Dense {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMul requires rank-3 operands, got %d and %d", a.Rank(), b.Rank()))
	}
	out := New(a.shape[0], a.shape[1], b.shape[2])
	BatchMatMulInto(out, a, b)
	return out
}

// BatchMatMulInto computes the batched product a@b into out, which must
// have shape [bt, m, n]. Like MatMulInto it overwrites out without
// reading it, so recycled buffers need no zeroing.
func BatchMatMulInto(out, a, b *Dense) {
	if a.Rank() != 3 || b.Rank() != 3 || out.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMulInto requires rank-3 operands, got %d, %d, %d", out.Rank(), a.Rank(), b.Rank()))
	}
	bt, m, ka := a.shape[0], a.shape[1], a.shape[2]
	bt2, kb, n := b.shape[0], b.shape[1], b.shape[2]
	if bt != bt2 || ka != kb {
		panic(fmt.Sprintf("tensor: BatchMatMul shape mismatch %v x %v", a.shape, b.shape))
	}
	if out.shape[0] != bt || out.shape[1] != m || out.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchMatMulInto output shape %v, want [%d %d %d]", out.shape, bt, m, n))
	}
	batchGEMM(out.data, a.data, b.data, bt, m, n, ka)
}

// BatchMatMulIntoMax is BatchMatMulInto with a cap on the number of
// worker chunks (max <= 0 means the full pool); the Threaded engine's
// Workers knob routes through it so a bounded split still makes one
// kernel decision for the whole batch.
func BatchMatMulIntoMax(max int, out, a, b *Dense) {
	if a.Rank() != 3 || b.Rank() != 3 || out.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMulIntoMax requires rank-3 operands, got %d, %d, %d", out.Rank(), a.Rank(), b.Rank()))
	}
	bt, m, ka := a.shape[0], a.shape[1], a.shape[2]
	bt2, kb, n := b.shape[0], b.shape[1], b.shape[2]
	if bt != bt2 || ka != kb {
		panic(fmt.Sprintf("tensor: BatchMatMulIntoMax shape mismatch %v x %v", a.shape, b.shape))
	}
	if out.shape[0] != bt || out.shape[1] != m || out.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchMatMulIntoMax output shape %v, want [%d %d %d]", out.shape, bt, m, n))
	}
	batchGEMMMax(max, out.data, a.data, b.data, bt, m, n, ka)
}

// batchGEMM runs bt independent m x n x k multiplies, splitting the
// bt*m output rows over the worker pool with a flop-based grain so
// small batches stay inline on the caller. Row ranges are disjoint, so
// workers write the shared output without synchronization.
func batchGEMM(c, a, b []complex128, bt, m, n, k int) {
	batchGEMMMax(0, c, a, b, bt, m, n, k)
}

func batchGEMMMax(max int, c, a, b []complex128, bt, m, n, k int) {
	// The asm-vs-streaming decision is made once on the full batch shape,
	// not per chunk: chunk boundaries depend on the worker count (and can
	// slice off partial matrices with very few rows), so deciding inside
	// gemm would let the split flip kernels — and their rounding —
	// breaking the worker-count bit-identity contract. The asm kernels
	// themselves compute every output row by the same instruction
	// sequence regardless of how rows are grouped, so once the decision
	// is fixed the split cannot change results. The Go path keeps gemm's
	// frozen per-call cutover (the seed behavior baselines are recorded
	// with; asmGemmProfitable is monotone in m, so when the full batch is
	// unprofitable no smaller chunk re-enables asm inside gemm either).
	asm := useAsm() && asmGemmProfitable(m, n, k)
	grain := int(65536/(int64(n)*int64(k))) + 1
	if bt*m <= grain {
		// One chunk, which the pool would run inline anyway: call it
		// directly, so the small multiplies that dominate a boundary sweep
		// neither allocate a closure nor consult the pool.
		gemmRows(c, a, b, m, n, k, asm, 0, bt*m)
		return
	}
	pool.ForMax(max, bt*m, grain, func(lo, hi int) { gemmRows(c, a, b, m, n, k, asm, lo, hi) })
}

// gemmRows computes output rows [lo, hi) of the bt*m rows of a batched
// multiply (see batchGEMMMax for the asm decision).
func gemmRows(c, a, b []complex128, m, n, k int, asm bool, lo, hi int) {
	for r := lo; r < hi; {
		t, i := r/m, r%m
		rows := min(m-i, hi-r)
		co := c[(t*m+i)*n : (t*m+i+rows)*n]
		ao := a[(t*m+i)*k : (t*m+i+rows)*k]
		bo := b[t*k*n : (t+1)*k*n]
		if asm {
			flopCount.Add(int64(rows) * int64(n) * int64(k))
			obsGEMMAsm.Add(1)
			gemmAsm(co, ao, bo, rows, n, k)
		} else {
			gemm(co, ao, bo, rows, n, k)
		}
		r += rows
	}
}

// gemm computes C = A@B for row-major C (m x n), A (m x k), B (k x n).
// C is overwritten, not accumulated into: the first k-panel stores and
// later panels accumulate, so C never needs pre-zeroing. It blocks over
// k and n so the active panel of B stays cache-resident, packs each
// panel column-major, and hands it to the register-blocked microkernel.
// Very short multiplies skip packing (nothing to amortize it over).
func gemm(c, a, b []complex128, m, n, k int) {
	flopCount.Add(int64(m) * int64(n) * int64(k))
	if useAsm() {
		if !asmGemmProfitable(m, n, k) {
			gemmSmall(c, a, b, m, n, k)
			return
		}
		obsGEMMAsm.Add(1)
		gemmAsm(c, a, b, m, n, k)
		return
	}
	if m < gemmSmallGoMinM || k < gemmSmallGoMinK {
		// Too few rows to amortize packing, or a contraction so short
		// that streaming rows of B beats touching a packed panel.
		gemmSmall(c, a, b, m, n, k)
		return
	}
	obsGEMMGo.Add(1)
	var packBuf [gemmBlockK * gemmBlockN]complex128
	for kk := 0; kk < k; kk += gemmBlockK {
		kMax := min(kk+gemmBlockK, k)
		for jj := 0; jj < n; jj += gemmBlockN {
			jMax := min(jj+gemmBlockN, n)
			// Pack B[kk:kMax, jj:jMax] column-major so the microkernel
			// streams every operand sequentially.
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

// gemmAsm is the packing wrapper around the AVX2+FMA microkernels in
// gemm_amd64.s. It mirrors gemm's blocking exactly, with two layout
// adjustments the assembly relies on: packed-B columns are laid out at
// an even stride kp (odd k-panels get one zero pad, and the matching A
// strips are copied into a padded scratch) so the k-loop runs in whole
// YMM steps with no scalar tail, and an odd trailing column is computed
// in Go at its fixed position so results never depend on how callers
// split rows across workers. The row-pair and single-row kernels share
// one per-output instruction sequence for the same reason.
func gemmAsm(c, a, b []complex128, m, n, k int) {
	var packBuf [gemmBlockK * gemmBlockN]complex128
	var aPad [2 * gemmBlockK]complex128
	for kk := 0; kk < k; kk += gemmBlockK {
		kMax := min(kk+gemmBlockK, k)
		kLen := kMax - kk
		kp := (kLen + 1) &^ 1
		store := kk == 0
		for jj := 0; jj < n; jj += gemmBlockN {
			jMax := min(jj+gemmBlockN, n)
			cols := jMax - jj
			for j := jj; j < jMax; j++ {
				col := packBuf[(j-jj)*kp : (j-jj)*kp+kp]
				bo := kk*n + j
				for l := 0; l < kLen; l++ {
					col[l] = b[bo]
					bo += n
				}
				if kp > kLen {
					col[kLen] = 0
				}
			}
			pairs := cols / 2
			var i int
			for i = 0; i+1 < m; i += 2 {
				pa0 := &a[i*k+kk]
				pa1 := &a[(i+1)*k+kk]
				if kp > kLen {
					copy(aPad[:kLen], a[i*k+kk:])
					aPad[kLen] = 0
					copy(aPad[gemmBlockK:gemmBlockK+kLen], a[(i+1)*k+kk:])
					aPad[gemmBlockK+kLen] = 0
					pa0, pa1 = &aPad[0], &aPad[gemmBlockK]
				}
				if pairs > 0 {
					gemmPanelPairAsm(&c[i*n+jj], &c[(i+1)*n+jj], pa0, pa1, &packBuf[0], kp, pairs, store)
				}
			}
			if i < m {
				pa0 := &a[i*k+kk]
				if kp > kLen {
					copy(aPad[:kLen], a[i*k+kk:])
					aPad[kLen] = 0
					pa0 = &aPad[0]
				}
				if pairs > 0 {
					gemmPanelRowAsm(&c[i*n+jj], pa0, &packBuf[0], kp, pairs, store)
				}
			}
			if cols%2 != 0 {
				j := jMax - 1
				col := packBuf[(cols-1)*kp : (cols-1)*kp+kLen]
				for i := 0; i < m; i++ {
					arow := a[i*k+kk : i*k+kk+kLen]
					var s complex128
					for l := range arow {
						s += arow[l] * col[l]
					}
					if store {
						c[i*n+j] = s
					} else {
						c[i*n+j] += s
					}
				}
			}
		}
	}
}

// gemmSmall is the fallback i-k-j kernel for multiplies with very few
// output rows or a very short contracted dimension, where panel packing
// cannot be amortized. The first k step (or pair) overwrites the C row
// so C need not be zeroed; later pairs of k steps share one pass over
// the row.
func gemmSmall(c, a, b []complex128, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		b0 := b[:n]
		var l int
		if k > 1 {
			a0, a1 := arow[0], arow[1]
			b1 := b[n : 2*n][:len(b0)]
			for j := range crow {
				crow[j] = a0*b0[j] + a1*b1[j]
			}
			l = 2
		} else {
			a0 := arow[0]
			for j := range crow {
				crow[j] = a0 * b0[j]
			}
			l = 1
		}
		for ; l+1 < k; l += 2 {
			a0, a1 := arow[l], arow[l+1]
			b0 := b[l*n : (l+1)*n]
			b1 := b[(l+1)*n : (l+2)*n][:len(b0)]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j]
			}
		}
		if l < k {
			al := arow[l]
			brow := b[l*n : (l+1)*n]
			for j := range crow {
				crow[j] += al * brow[j]
			}
		}
	}
}

// gemmPanel applies C[:, jj:jMax] (+)= A[:, kk:kk+kLen] @ packed panel,
// where pack holds the B panel column-major (kLen elements per column)
// and store selects overwrite (first k-panel) versus accumulate. The
// 2x2 register accumulators give four independent sums per inner
// iteration to hide multiply latency, every load is sequential, and C is
// touched once per k-panel instead of once per k step. The inner loop is
// branch-free — no zero-skip test — so it pipelines.
func gemmPanel(c, a, pack []complex128, m, n, k, kk, kLen, jj, jMax int, store bool) {
	var i int
	for i = 0; i+1 < m; i += 2 {
		a0 := a[i*k+kk : i*k+kk+kLen]
		a1 := a[(i+1)*k+kk : (i+1)*k+kk+kLen]
		c0 := c[i*n : i*n+jMax]
		c1 := c[(i+1)*n : (i+1)*n+jMax]
		j := jj
		for ; j+1 < jMax; j += 2 {
			// Reslicing to a0's length lets the compiler drop the bounds
			// checks in the inner loop.
			b0 := pack[(j-jj)*kLen:][:len(a0)]
			b1 := pack[(j-jj+1)*kLen:][:len(a0)]
			a1 := a1[:len(a0)]
			var s00, s01, s10, s11 complex128
			for l := range a0 {
				av0, av1 := a0[l], a1[l]
				bv0, bv1 := b0[l], b1[l]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
			}
			if store {
				c0[j], c0[j+1] = s00, s01
				c1[j], c1[j+1] = s10, s11
			} else {
				c0[j] += s00
				c0[j+1] += s01
				c1[j] += s10
				c1[j+1] += s11
			}
		}
		if j < jMax {
			b0 := pack[(j-jj)*kLen : (j-jj+1)*kLen]
			var s0, s1 complex128
			for l := range a0 {
				bv := b0[l]
				s0 += a0[l] * bv
				s1 += a1[l] * bv
			}
			if store {
				c0[j], c1[j] = s0, s1
			} else {
				c0[j] += s0
				c1[j] += s1
			}
		}
	}
	if i < m {
		a0 := a[i*k+kk : i*k+kk+kLen]
		c0 := c[i*n : i*n+jMax]
		for j := jj; j < jMax; j++ {
			b0 := pack[(j-jj)*kLen : (j-jj+1)*kLen]
			var s complex128
			for l := range a0 {
				s += a0[l] * b0[l]
			}
			if store {
				c0[j] = s
			} else {
				c0[j] += s
			}
		}
	}
}

// BatchMatMulScatter computes the batched product a@b — a of shape
// [bt, m, k], b of shape [bt, k, n] — and writes element (t, i, j) to
// dst[bMap[t]+iMap[i]+jMap[j]] instead of storing the product densely.
// The offset tables let a GEMM absorb the axis permutation that would
// otherwise run as a separate materializing transpose over the full
// product: the einsum plan compiler fuses short-k GEMMs with the
// transpose consuming them this way, precomputing the tables once per
// plan. dst is overwritten, never read; output rows are split over the
// worker pool (rows land on disjoint destination offsets, so workers
// never conflict).
func BatchMatMulScatter(dst []complex128, a, b *Dense, bMap, iMap, jMap []int) {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMulScatter requires rank-3 operands, got %d and %d", a.Rank(), b.Rank()))
	}
	bt, m, ka := a.shape[0], a.shape[1], a.shape[2]
	bt2, kb, n := b.shape[0], b.shape[1], b.shape[2]
	if bt != bt2 || ka != kb {
		panic(fmt.Sprintf("tensor: BatchMatMulScatter shape mismatch %v x %v", a.shape, b.shape))
	}
	if len(bMap) != bt || len(iMap) != m || len(jMap) != n {
		panic("tensor: BatchMatMulScatter offset table sizes do not match operand shapes")
	}
	flopCount.Add(int64(bt) * int64(m) * int64(n) * int64(ka))
	// Destinations usually come in short contiguous runs (the innermost
	// output axis is normally a free letter of b). Detect runs of four so
	// the hot loops store four-wide with a single table lookup.
	run4 := n%4 == 0
	for j := 0; run4 && j < n; j += 4 {
		o := jMap[j]
		if jMap[j+1] != o+1 || jMap[j+2] != o+2 || jMap[j+3] != o+3 {
			run4 = false
		}
	}
	// When groups of four consecutive rows advance the destination by
	// exactly one j-run (an interleaving transpose, like the PEPS
	// double-layer merge), the four rows' runs tile a contiguous
	// 16-element block: process them together so every loaded b value
	// feeds four outputs and stores land in 256-byte sequential chunks.
	irun4 := run4 && m%4 == 0
	for i := 0; irun4 && i < m; i += 4 {
		o := iMap[i]
		if iMap[i+1] != o+4 || iMap[i+2] != o+8 || iMap[i+3] != o+12 {
			irun4 = false
		}
	}
	grain := int(65536/(int64(n)*int64(ka))) + 1
	// One kernel decision per call, shared by every worker, so a row's
	// arithmetic never depends on which worker ran it.
	asm := useAsm() && n > 0
	if bt*m <= grain {
		// One chunk: run it here, without a closure (see batchGEMMMax).
		scatterRows(dst, a, b, bMap, iMap, jMap, run4, irun4, asm, 0, bt*m)
		return
	}
	pool.For(bt*m, grain, func(lo, hi int) { scatterRows(dst, a, b, bMap, iMap, jMap, run4, irun4, asm, lo, hi) })
}

// scatterRows computes rows [lo, hi) of the bt*m product rows of
// BatchMatMulScatter and stores them through the offset tables.
func scatterRows(dst []complex128, a, b *Dense, bMap, iMap, jMap []int, run4, irun4, asm bool, lo, hi int) {
	m, ka, n := a.shape[1], a.shape[2], b.shape[2]
	// The accumulation row of the general-k path; a short one stays on
	// the stack.
	var rowArr [32]complex128
	var row []complex128
	if ka > 2 {
		if row = rowArr[:]; n > len(row) {
			row = make([]complex128, n)
		}
		row = row[:n]
	}
	for r := lo; r < hi; r++ {
		t, i := r/m, r%m
		arow := a.data[r*ka : (r+1)*ka]
		bb := b.data[t*ka*n : (t+1)*ka*n]
		base := bMap[t] + iMap[i]
		if ka <= 2 {
			// Short contraction: compute and scatter in one pass.
			b0 := bb[:n]
			a0 := arow[0]
			switch {
			case ka == 2 && irun4 && i%4 == 0 && r+3 < hi:
				// Four-row block: rows i..i+3 write the contiguous
				// 16-element runs base+jMap[j] .. +15.
				a1 := arow[1]
				ar := a.data[(r+1)*ka : (r+4)*ka]
				c0, c1 := ar[0], ar[1]
				e0, e1 := ar[2], ar[3]
				g0, g1 := ar[4], ar[5]
				b1 := bb[n : 2*n][:len(b0)]
				for j := 0; j+3 < len(b0); j += 4 {
					v0, v1, v2, v3 := b0[j], b0[j+1], b0[j+2], b0[j+3]
					w0, w1, w2, w3 := b1[j], b1[j+1], b1[j+2], b1[j+3]
					d := dst[base+jMap[j]:]
					_ = d[15]
					d[0], d[1], d[2], d[3] = a0*v0+a1*w0, a0*v1+a1*w1, a0*v2+a1*w2, a0*v3+a1*w3
					d[4], d[5], d[6], d[7] = c0*v0+c1*w0, c0*v1+c1*w1, c0*v2+c1*w2, c0*v3+c1*w3
					d[8], d[9], d[10], d[11] = e0*v0+e1*w0, e0*v1+e1*w1, e0*v2+e1*w2, e0*v3+e1*w3
					d[12], d[13], d[14], d[15] = g0*v0+g1*w0, g0*v1+g1*w1, g0*v2+g1*w2, g0*v3+g1*w3
				}
				r += 3
			case ka == 2 && run4:
				a1 := arow[1]
				b1 := bb[n : 2*n][:len(b0)]
				for j := 0; j+3 < len(b0); j += 4 {
					d := dst[base+jMap[j]:]
					_ = d[3]
					d[0] = a0*b0[j] + a1*b1[j]
					d[1] = a0*b0[j+1] + a1*b1[j+1]
					d[2] = a0*b0[j+2] + a1*b1[j+2]
					d[3] = a0*b0[j+3] + a1*b1[j+3]
				}
			case ka == 2:
				a1 := arow[1]
				b1 := bb[n : 2*n][:len(b0)]
				for j, v := range b0 {
					dst[base+jMap[j]] = a0*v + a1*b1[j]
				}
			case run4:
				for j := 0; j+3 < len(b0); j += 4 {
					d := dst[base+jMap[j]:]
					_ = d[3]
					d[0] = a0 * b0[j]
					d[1] = a0 * b0[j+1]
					d[2] = a0 * b0[j+2]
					d[3] = a0 * b0[j+3]
				}
			default:
				for j, v := range b0 {
					dst[base+jMap[j]] = a0 * v
				}
			}
			continue
		}
		// General k: accumulate the row in scratch with the same
		// summation order as gemmSmall, then scatter it once. The
		// axpy microkernels keep that order (one paired k-step per
		// pass over the row), so both variants scatter identical
		// reduction shapes.
		if asm {
			axpy2Asm(&row[0], &bb[0], &bb[n], n, arow[0], arow[1], true)
			var l int
			for l = 2; l+1 < ka; l += 2 {
				axpy2Asm(&row[0], &bb[l*n], &bb[(l+1)*n], n, arow[l], arow[l+1], false)
			}
			if l < ka {
				axpy1Asm(&row[0], &bb[l*n], n, arow[l])
			}
		} else {
			b0 := bb[:n]
			a0, a1 := arow[0], arow[1]
			b1 := bb[n : 2*n][:len(b0)]
			for j := range row {
				row[j] = a0*b0[j] + a1*b1[j]
			}
			var l int
			for l = 2; l+1 < ka; l += 2 {
				a0, a1 := arow[l], arow[l+1]
				b0 := bb[l*n : (l+1)*n]
				b1 := bb[(l+1)*n : (l+2)*n][:len(b0)]
				for j := range row {
					row[j] += a0*b0[j] + a1*b1[j]
				}
			}
			if l < ka {
				al := arow[l]
				brow := bb[l*n : (l+1)*n]
				for j := range row {
					row[j] += al * brow[j]
				}
			}
		}
		if run4 {
			for j := 0; j+3 < len(row); j += 4 {
				o := base + jMap[j]
				dst[o], dst[o+1], dst[o+2], dst[o+3] = row[j], row[j+1], row[j+2], row[j+3]
			}
		} else {
			for j, v := range row {
				dst[base+jMap[j]] = v
			}
		}
	}
}

// MatVec returns the matrix-vector product a@x for a rank-2 a and rank-1 x.
func MatVec(a, x *Dense) *Dense {
	if a.Rank() != 2 || x.Rank() != 1 {
		panic("tensor: MatVec requires a matrix and a vector")
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v x %v", a.shape, x.shape))
	}
	out := New(m)
	flopCount.Add(int64(m) * int64(k))
	for i := 0; i < m; i++ {
		var s complex128
		row := a.data[i*k : (i+1)*k]
		for j, v := range row {
			s += v * x.data[j]
		}
		out.data[i] = s
	}
	return out
}
