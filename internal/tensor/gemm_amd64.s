//go:build !purego

#include "textflag.h"

// AVX2+FMA microkernels for the packed-panel complex128 GEMM, the
// scatter-GEMM row accumulators, and the one-sided Jacobi rotation
// apply. Calling convention and layout contracts are documented on the
// Go declarations in gemm_amd64.go; the rounding contract (why these
// kernels are allowed to differ from the pure-Go reference in the last
// bits, and why every output element sees the same instruction sequence
// regardless of how rows are split over workers) is DESIGN.md section 13.
//
// Complex multiply-accumulate scheme: a YMM register holds two
// complex128 values [re0, im0, re1, im1]. For s += a*b the kernel keeps
// two accumulators per output —
//
//	accA += dup(re(a)) * b          (VMOVDDUP + VFMADD231PD)
//	accB += dup(im(a)) * swap(b)    (VPERMILPD $15 / $5 + VFMADD231PD)
//
// and combines them once per panel as VADDSUBPD(accA, accB), which
// yields [re(a)re(b)-im(a)im(b), re(a)im(b)+im(a)re(b)] per lane; the
// two lanes are then summed low+high. Each complex MAC costs two FMAs
// and the real/imag cross terms contract with fused rounding — this is
// where the asm path's rounding departs from the pure-Go kernel.

// func gemmPanelPairAsm(c0, c1, a0, a1, pack *complex128, kp, pairs int, store bool)
//
// Two A-row strips (kp complexes each, kp even) against `pairs` pairs of
// packed B columns (column-major, kp complexes per column). Outputs land
// at c0[0:2*pairs], c1[0:2*pairs]; store!=0 overwrites, store==0
// accumulates.
TEXT ·gemmPanelPairAsm(SB), NOSPLIT, $0-57
	MOVQ     c0+0(FP), DI
	MOVQ     c1+8(FP), SI
	MOVQ     a0+16(FP), R8
	MOVQ     a1+24(FP), R9
	MOVQ     pack+32(FP), R14
	MOVQ     kp+40(FP), R11
	SHLQ     $4, R11              // kp in bytes
	MOVQ     pairs+48(FP), R12
	MOVBQZX  store+56(FP), R13
	TESTQ    R12, R12
	JE       pairdone

paircol:
	LEAQ     (R14)(R11*1), R15    // second column of the pair
	VXORPD   Y0, Y0, Y0           // acc00A
	VXORPD   Y1, Y1, Y1           // acc00B
	VXORPD   Y2, Y2, Y2           // acc01A
	VXORPD   Y3, Y3, Y3           // acc01B
	VXORPD   Y4, Y4, Y4           // acc10A
	VXORPD   Y5, Y5, Y5           // acc10B
	VXORPD   Y6, Y6, Y6           // acc11A
	VXORPD   Y7, Y7, Y7           // acc11B
	XORQ     BX, BX

pairk:
	VMOVDDUP    (R8)(BX*1), Y8       // re(a0) duplicated
	VPERMILPD   $15, (R8)(BX*1), Y9  // im(a0) duplicated
	VMOVDDUP    (R9)(BX*1), Y10      // re(a1)
	VPERMILPD   $15, (R9)(BX*1), Y11 // im(a1)
	VMOVUPD     (R14)(BX*1), Y12     // b0
	VPERMILPD   $5, Y12, Y13         // swap(b0)
	VMOVUPD     (R15)(BX*1), Y14     // b1
	VPERMILPD   $5, Y14, Y15         // swap(b1)
	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y13, Y9, Y1
	VFMADD231PD Y14, Y8, Y2
	VFMADD231PD Y15, Y9, Y3
	VFMADD231PD Y12, Y10, Y4
	VFMADD231PD Y13, Y11, Y5
	VFMADD231PD Y14, Y10, Y6
	VFMADD231PD Y15, Y11, Y7
	ADDQ        $32, BX
	CMPQ        BX, R11
	JLT         pairk

	// Combine cross terms, then sum the two complex lanes.
	VADDSUBPD    Y1, Y0, Y0
	VADDSUBPD    Y3, Y2, Y2
	VADDSUBPD    Y5, Y4, Y4
	VADDSUBPD    Y7, Y6, Y6
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0       // s00
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2       // s01
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4       // s10
	VEXTRACTF128 $1, Y6, X7
	VADDPD       X7, X6, X6       // s11

	TESTQ   R13, R13
	JE      pairacc
	VMOVUPD X0, (DI)
	VMOVUPD X2, 16(DI)
	VMOVUPD X4, (SI)
	VMOVUPD X6, 16(SI)
	JMP     pairnext

pairacc:
	VADDPD  (DI), X0, X0
	VMOVUPD X0, (DI)
	VADDPD  16(DI), X2, X2
	VMOVUPD X2, 16(DI)
	VADDPD  (SI), X4, X4
	VMOVUPD X4, (SI)
	VADDPD  16(SI), X6, X6
	VMOVUPD X6, 16(SI)

pairnext:
	ADDQ $32, DI
	ADDQ $32, SI
	LEAQ (R14)(R11*2), R14
	DECQ R12
	JNE  paircol

pairdone:
	VZEROUPPER
	RET

// func gemmPanelRowAsm(c0, a0, pack *complex128, kp, pairs int, store bool)
//
// Single-row variant of gemmPanelPairAsm with the identical per-output
// instruction sequence, so a row computed alone carries the same bits as
// the same row computed as half of a pair (worker-split invariance).
TEXT ·gemmPanelRowAsm(SB), NOSPLIT, $0-41
	MOVQ    c0+0(FP), DI
	MOVQ    a0+8(FP), R8
	MOVQ    pack+16(FP), R14
	MOVQ    kp+24(FP), R11
	SHLQ    $4, R11
	MOVQ    pairs+32(FP), R12
	MOVBQZX store+40(FP), R13
	TESTQ   R12, R12
	JE      rowdone

rowcol:
	LEAQ   (R14)(R11*1), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   BX, BX

rowk:
	VMOVDDUP    (R8)(BX*1), Y8
	VPERMILPD   $15, (R8)(BX*1), Y9
	VMOVUPD     (R14)(BX*1), Y12
	VPERMILPD   $5, Y12, Y13
	VMOVUPD     (R15)(BX*1), Y14
	VPERMILPD   $5, Y14, Y15
	VFMADD231PD Y12, Y8, Y0
	VFMADD231PD Y13, Y9, Y1
	VFMADD231PD Y14, Y8, Y2
	VFMADD231PD Y15, Y9, Y3
	ADDQ        $32, BX
	CMPQ        BX, R11
	JLT         rowk

	VADDSUBPD    Y1, Y0, Y0
	VADDSUBPD    Y3, Y2, Y2
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2

	TESTQ   R13, R13
	JE      rowacc
	VMOVUPD X0, (DI)
	VMOVUPD X2, 16(DI)
	JMP     rownext

rowacc:
	VADDPD  (DI), X0, X0
	VMOVUPD X0, (DI)
	VADDPD  16(DI), X2, X2
	VMOVUPD X2, 16(DI)

rownext:
	ADDQ $32, DI
	LEAQ (R14)(R11*2), R14
	DECQ R12
	JNE  rowcol

rowdone:
	VZEROUPPER
	RET

// func axpy2Asm(dst, x0, x1 *complex128, n int, a0, a1 complex128, store bool)
//
// dst[j] (+)= a0*x0[j] + a1*x1[j] for j < n. Elementwise (no reduction),
// so lane grouping cannot change per-element results. Used by the
// scatter-GEMM general-k row accumulation.
TEXT ·axpy2Asm(SB), NOSPLIT, $0-65
	MOVQ         dst+0(FP), DI
	MOVQ         x0+8(FP), R8
	MOVQ         x1+16(FP), R9
	MOVQ         n+24(FP), R11
	SHLQ         $4, R11           // n in bytes
	VBROADCASTSD a0_real+32(FP), Y8
	VBROADCASTSD a0_imag+40(FP), Y9
	VBROADCASTSD a1_real+48(FP), Y10
	VBROADCASTSD a1_imag+56(FP), Y11
	MOVBQZX      store+64(FP), R13
	XORQ         BX, BX

axpy2loop:
	LEAQ        32(BX), DX
	CMPQ        DX, R11
	JGT         axpy2tail
	VMOVUPD     (R8)(BX*1), Y0     // x0
	VMOVUPD     (R9)(BX*1), Y1     // x1
	VPERMILPD   $5, Y0, Y2
	VPERMILPD   $5, Y1, Y3
	VMULPD      Y8, Y0, Y4         // accA = re(a0)*x0
	VFMADD231PD Y10, Y1, Y4        // accA += re(a1)*x1
	VMULPD      Y9, Y2, Y5         // accB = im(a0)*swap(x0)
	VFMADD231PD Y11, Y3, Y5        // accB += im(a1)*swap(x1)
	VADDSUBPD   Y5, Y4, Y4
	TESTQ       R13, R13
	JNE         axpy2store
	VADDPD      (DI)(BX*1), Y4, Y4
axpy2store:
	VMOVUPD     Y4, (DI)(BX*1)
	MOVQ        DX, BX
	JMP         axpy2loop

axpy2tail:
	CMPQ        BX, R11
	JGE         axpy2done
	VMOVUPD     (R8)(BX*1), X0
	VMOVUPD     (R9)(BX*1), X1
	VPERMILPD   $1, X0, X2
	VPERMILPD   $1, X1, X3
	VMULPD      X8, X0, X4
	VFMADD231PD X10, X1, X4
	VMULPD      X9, X2, X5
	VFMADD231PD X11, X3, X5
	VADDSUBPD   X5, X4, X4
	TESTQ       R13, R13
	JNE         axpy2tailstore
	VADDPD      (DI)(BX*1), X4, X4
axpy2tailstore:
	VMOVUPD     X4, (DI)(BX*1)
	ADDQ        $16, BX
	JMP         axpy2tail

axpy2done:
	VZEROUPPER
	RET

// func axpy1Asm(dst, x *complex128, n int, a complex128)
//
// dst[j] += a*x[j] for j < n (always accumulates: it serves the odd
// trailing k-step of a row already seeded by axpy2Asm).
TEXT ·axpy1Asm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), R8
	MOVQ         n+16(FP), R11
	SHLQ         $4, R11
	VBROADCASTSD a_real+24(FP), Y8
	VBROADCASTSD a_imag+32(FP), Y9
	XORQ         BX, BX

axpy1loop:
	LEAQ        32(BX), DX
	CMPQ        DX, R11
	JGT         axpy1tail
	VMOVUPD     (R8)(BX*1), Y0
	VPERMILPD   $5, Y0, Y2
	VMULPD      Y8, Y0, Y4
	VMULPD      Y9, Y2, Y5
	VADDSUBPD   Y5, Y4, Y4
	VADDPD      (DI)(BX*1), Y4, Y4
	VMOVUPD     Y4, (DI)(BX*1)
	MOVQ        DX, BX
	JMP         axpy1loop

axpy1tail:
	CMPQ        BX, R11
	JGE         axpy1done
	VMOVUPD     (R8)(BX*1), X0
	VPERMILPD   $1, X0, X2
	VMULPD      X8, X0, X4
	VMULPD      X9, X2, X5
	VADDSUBPD   X5, X4, X4
	VADDPD      (DI)(BX*1), X4, X4
	VMOVUPD     X4, (DI)(BX*1)
	ADDQ        $16, BX
	JMP         axpy1tail

axpy1done:
	VZEROUPPER
	RET

// func gemmPanelPairC64Asm(c0, c1, a0, a1, pack *complex64, kp, pairs int, store bool)
//
// complex64 variant of gemmPanelPairAsm for the opt-in mixed-precision
// sketch path: a YMM register holds four complex64 values, so kp must be
// a multiple of four (the packer zero-pads). The MAC scheme is the
// single-precision mirror of the complex128 one —
//
//	accA += dup(re(a)) * b          (VMOVSLDUP + VFMADD231PS)
//	accB += dup(im(a)) * swap(b)    (VMOVSHDUP + VPERMILPS $0xB1)
//
// combined once per panel with VADDSUBPS and reduced across the four
// lanes (high half, then the two remaining complexes).
TEXT ·gemmPanelPairC64Asm(SB), NOSPLIT, $0-57
	MOVQ    c0+0(FP), DI
	MOVQ    c1+8(FP), SI
	MOVQ    a0+16(FP), R8
	MOVQ    a1+24(FP), R9
	MOVQ    pack+32(FP), R14
	MOVQ    kp+40(FP), R11
	SHLQ    $3, R11               // kp in bytes (8 per complex64)
	MOVQ    pairs+48(FP), R12
	MOVBQZX store+56(FP), R13
	TESTQ   R12, R12
	JE      cpairdone

cpaircol:
	LEAQ   (R14)(R11*1), R15      // second column of the pair
	VXORPS Y0, Y0, Y0             // acc00A
	VXORPS Y1, Y1, Y1             // acc00B
	VXORPS Y2, Y2, Y2             // acc01A
	VXORPS Y3, Y3, Y3             // acc01B
	VXORPS Y4, Y4, Y4             // acc10A
	VXORPS Y5, Y5, Y5             // acc10B
	VXORPS Y6, Y6, Y6             // acc11A
	VXORPS Y7, Y7, Y7             // acc11B
	XORQ   BX, BX

cpairk:
	VMOVSLDUP   (R8)(BX*1), Y8    // re(a0) duplicated
	VMOVSHDUP   (R8)(BX*1), Y9    // im(a0) duplicated
	VMOVSLDUP   (R9)(BX*1), Y10   // re(a1)
	VMOVSHDUP   (R9)(BX*1), Y11   // im(a1)
	VMOVUPS     (R14)(BX*1), Y12  // b0
	VPERMILPS   $0xB1, Y12, Y13   // swap(b0)
	VMOVUPS     (R15)(BX*1), Y14  // b1
	VPERMILPS   $0xB1, Y14, Y15   // swap(b1)
	VFMADD231PS Y12, Y8, Y0
	VFMADD231PS Y13, Y9, Y1
	VFMADD231PS Y14, Y8, Y2
	VFMADD231PS Y15, Y9, Y3
	VFMADD231PS Y12, Y10, Y4
	VFMADD231PS Y13, Y11, Y5
	VFMADD231PS Y14, Y10, Y6
	VFMADD231PS Y15, Y11, Y7
	ADDQ        $32, BX
	CMPQ        BX, R11
	JLT         cpairk

	// Combine cross terms, then fold four complex lanes down to one.
	VADDSUBPS    Y1, Y0, Y0
	VADDSUBPS    Y3, Y2, Y2
	VADDSUBPS    Y5, Y4, Y4
	VADDSUBPS    Y7, Y6, Y6
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDPS       X1, X0, X0       // s00 in low 8 bytes
	VEXTRACTF128 $1, Y2, X3
	VADDPS       X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDPS       X3, X2, X2       // s01
	VEXTRACTF128 $1, Y4, X5
	VADDPS       X5, X4, X4
	VPERMILPD    $1, X4, X5
	VADDPS       X5, X4, X4       // s10
	VEXTRACTF128 $1, Y6, X7
	VADDPS       X7, X6, X6
	VPERMILPD    $1, X6, X7
	VADDPS       X7, X6, X6       // s11
	VUNPCKLPD    X2, X0, X0       // [s00, s01]
	VUNPCKLPD    X6, X4, X4       // [s10, s11]

	TESTQ   R13, R13
	JE      cpairacc
	VMOVUPS X0, (DI)
	VMOVUPS X4, (SI)
	JMP     cpairnext

cpairacc:
	VADDPS  (DI), X0, X0
	VMOVUPS X0, (DI)
	VADDPS  (SI), X4, X4
	VMOVUPS X4, (SI)

cpairnext:
	ADDQ $16, DI
	ADDQ $16, SI
	LEAQ (R14)(R11*2), R14
	DECQ R12
	JNE  cpaircol

cpairdone:
	VZEROUPPER
	RET

// func gemmPanelRowC64Asm(c0, a0, pack *complex64, kp, pairs int, store bool)
//
// Single-row complex64 variant with the identical per-output instruction
// sequence as gemmPanelPairC64Asm (worker-split invariance).
TEXT ·gemmPanelRowC64Asm(SB), NOSPLIT, $0-41
	MOVQ    c0+0(FP), DI
	MOVQ    a0+8(FP), R8
	MOVQ    pack+16(FP), R14
	MOVQ    kp+24(FP), R11
	SHLQ    $3, R11
	MOVQ    pairs+32(FP), R12
	MOVBQZX store+40(FP), R13
	TESTQ   R12, R12
	JE      crowdone

crowcol:
	LEAQ   (R14)(R11*1), R15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   BX, BX

crowk:
	VMOVSLDUP   (R8)(BX*1), Y8
	VMOVSHDUP   (R8)(BX*1), Y9
	VMOVUPS     (R14)(BX*1), Y12
	VPERMILPS   $0xB1, Y12, Y13
	VMOVUPS     (R15)(BX*1), Y14
	VPERMILPS   $0xB1, Y14, Y15
	VFMADD231PS Y12, Y8, Y0
	VFMADD231PS Y13, Y9, Y1
	VFMADD231PS Y14, Y8, Y2
	VFMADD231PS Y15, Y9, Y3
	ADDQ        $32, BX
	CMPQ        BX, R11
	JLT         crowk

	VADDSUBPS    Y1, Y0, Y0
	VADDSUBPS    Y3, Y2, Y2
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDPS       X1, X0, X0
	VEXTRACTF128 $1, Y2, X3
	VADDPS       X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDPS       X3, X2, X2
	VUNPCKLPD    X2, X0, X0

	TESTQ   R13, R13
	JE      crowacc
	VMOVUPS X0, (DI)
	JMP     crownext

crowacc:
	VADDPS  (DI), X0, X0
	VMOVUPS X0, (DI)

crownext:
	ADDQ $16, DI
	LEAQ (R14)(R11*2), R14
	DECQ R12
	JNE  crowcol

crowdone:
	VZEROUPPER
	RET

// func jacobiRotateAsm(p, q *complex128, n int, c float64, sp complex128)
//
// Applies the two-column Jacobi rotation
//
//	p[i] = c*p[i] - conj(sp)*q[i]
//	q[i] = sp*p[i] + c*q[i]      (p[i] read before the update)
//
// elementwise over n complexes. With a = re(sp), b = im(sp) and the
// signs of the cross terms folded into two broadcast constants,
//
//	conj(sp)*v = a*v + [b, -b]*swap(v)
//	sp*v       = a*v + [-b, b]*swap(v)
//
// each output is one multiply and two fused multiply-adds.
TEXT ·jacobiRotateAsm(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         n+16(FP), R11
	SHLQ         $4, R11
	VBROADCASTSD c+24(FP), Y8       // c
	VBROADCASTSD sp_real+32(FP), Y9 // a
	VBROADCASTSD sp_imag+40(FP), Y10 // b
	VPCMPEQD     Y12, Y12, Y12
	VPSLLQ       $63, Y12, Y12      // sign bit in every lane
	VXORPD       Y13, Y13, Y13
	VBLENDPD     $0xA, Y12, Y13, Y13 // sign bit in the odd lanes
	VXORPD       Y13, Y10, Y10      // [b, -b, b, -b]
	VXORPD       Y12, Y10, Y11      // [-b, b, -b, b]
	XORQ         BX, BX

jrotloop:
	LEAQ         32(BX), DX
	CMPQ         DX, R11
	JGT          jrottail
	VMOVUPD      (DI)(BX*1), Y0     // P
	VMOVUPD      (SI)(BX*1), Y1     // Q
	VPERMILPD    $5, Y0, Y2         // swap(P)
	VPERMILPD    $5, Y1, Y3         // swap(Q)
	VMULPD       Y8, Y0, Y4         // c*P
	VMULPD       Y8, Y1, Y6         // c*Q
	VFNMADD231PD Y9, Y1, Y4         // - a*Q
	VFMADD231PD  Y9, Y0, Y6         // + a*P
	VFNMADD231PD Y10, Y3, Y4        // newP = c*P - conj(sp)*Q
	VFMADD231PD  Y11, Y2, Y6        // newQ = c*Q + sp*P
	VMOVUPD      Y4, (DI)(BX*1)
	VMOVUPD      Y6, (SI)(BX*1)
	MOVQ         DX, BX
	JMP          jrotloop

jrottail:
	CMPQ         BX, R11
	JGE          jrotdone
	VMOVUPD      (DI)(BX*1), X0
	VMOVUPD      (SI)(BX*1), X1
	VPERMILPD    $1, X0, X2
	VPERMILPD    $1, X1, X3
	VMULPD       X8, X0, X4
	VMULPD       X8, X1, X6
	VFNMADD231PD X9, X1, X4
	VFMADD231PD  X9, X0, X6
	VFNMADD231PD X10, X3, X4
	VFMADD231PD  X11, X2, X6
	VMOVUPD      X4, (DI)(BX*1)
	VMOVUPD      X6, (SI)(BX*1)
	ADDQ         $16, BX
	JMP          jrottail

jrotdone:
	VZEROUPPER
	RET

// func colGramAsm(p, q *complex128, n int, out *[4]float64)
//
// The Gram triple of a column pair in one pass:
//
//	out[0] = sum |p[i]|^2          out[1] = sum |q[i]|^2
//	out[2] + i*out[3] = sum conj(p[i])*q[i]
//
// Per YMM (two complexes) the four sums take one FMA each: P*P, Q*Q,
// P*Q (lanes sum to the real part) and P*swap(Q) (even minus odd lanes
// is the imaginary part). The main loop handles two YMM pairs with
// eight independent accumulators to cover the FMA latency; they are
// folded pairwise once at the end, then a lone trailing complex is
// added in XMM registers (a VEX 128-bit write would zero the upper
// accumulator lanes, hence after the fold). The reduction order is a
// function of n alone.
TEXT ·colGramAsm(SB), NOSPLIT, $0-32
	MOVQ   p+0(FP), DI
	MOVQ   q+8(FP), SI
	MOVQ   n+16(FP), R11
	SHLQ   $4, R11
	MOVQ   out+24(FP), R8
	VXORPD Y0, Y0, Y0             // alpha
	VXORPD Y1, Y1, Y1             // beta
	VXORPD Y2, Y2, Y2             // re
	VXORPD Y3, Y3, Y3             // im (even lanes minus odd lanes)
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   BX, BX

cgram4:
	LEAQ        64(BX), DX
	CMPQ        DX, R11
	JGT         cgram2
	VMOVUPD     (DI)(BX*1), Y8    // P0
	VMOVUPD     (SI)(BX*1), Y9    // Q0
	VMOVUPD     32(DI)(BX*1), Y10 // P1
	VMOVUPD     32(SI)(BX*1), Y11 // Q1
	VPERMILPD   $5, Y9, Y12       // swap(Q0)
	VPERMILPD   $5, Y11, Y13      // swap(Q1)
	VFMADD231PD Y8, Y8, Y0
	VFMADD231PD Y9, Y9, Y1
	VFMADD231PD Y9, Y8, Y2
	VFMADD231PD Y12, Y8, Y3
	VFMADD231PD Y10, Y10, Y4
	VFMADD231PD Y11, Y11, Y5
	VFMADD231PD Y11, Y10, Y6
	VFMADD231PD Y13, Y10, Y7
	MOVQ        DX, BX
	JMP         cgram4

cgram2:
	LEAQ        32(BX), DX
	CMPQ        DX, R11
	JGT         cgramfold
	VMOVUPD     (DI)(BX*1), Y8
	VMOVUPD     (SI)(BX*1), Y9
	VPERMILPD   $5, Y9, Y12
	VFMADD231PD Y8, Y8, Y0
	VFMADD231PD Y9, Y9, Y1
	VFMADD231PD Y9, Y8, Y2
	VFMADD231PD Y12, Y8, Y3
	MOVQ        DX, BX

cgramfold:
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VADDPD       X4, X0, X0
	VADDPD       X5, X1, X1
	VADDPD       X6, X2, X2
	VADDPD       X7, X3, X3
	CMPQ         BX, R11
	JGE          cgramout
	VMOVUPD      (DI)(BX*1), X8
	VMOVUPD      (SI)(BX*1), X9
	VPERMILPD    $1, X9, X12
	VFMADD231PD  X8, X8, X0
	VFMADD231PD  X9, X9, X1
	VFMADD231PD  X9, X8, X2
	VFMADD231PD  X12, X8, X3

cgramout:
	VHADDPD   X1, X0, X0          // [alpha, beta]
	VHADDPD   X2, X2, X2          // re in lane 0
	VHSUBPD   X3, X3, X3          // im = even - odd in lane 0
	VUNPCKLPD X3, X2, X2          // [re, im]
	VMOVUPD   X0, (R8)
	VMOVUPD   X2, 16(R8)
	VZEROUPPER
	RET
