//go:build amd64 && !purego

package tensor

// Declarations for the AVX2+FMA microkernels in gemm_amd64.s. Layout
// contracts (enforced by the gemmAsm packing wrapper in matmul.go):
//
//   - gemmPanelPairAsm / gemmPanelRowAsm: a-strips and packed-B columns
//     are kp complexes long with kp even (odd k-panels are zero-padded by
//     the packer), pack holds pairs*2 columns at stride kp, and outputs
//     are written contiguously from c0/c1.
//   - axpy2Asm / axpy1Asm: plain contiguous slices, any n >= 0.
//   - jacobiRotateAsm: p and q are the two columns, n complexes each.
//   - colGramAsm: the same two columns, n >= 1; out receives
//     ||p||^2, ||q||^2, re(p* q), im(p* q).
//
// All kernels are elementwise or fixed-order reductions per output, so
// results do not depend on how callers split rows across workers.

//go:noescape
func gemmPanelPairAsm(c0, c1, a0, a1, pack *complex128, kp, pairs int, store bool)

//go:noescape
func gemmPanelRowAsm(c0, a0, pack *complex128, kp, pairs int, store bool)

//go:noescape
func axpy2Asm(dst, x0, x1 *complex128, n int, a0, a1 complex128, store bool)

//go:noescape
func axpy1Asm(dst, x *complex128, n int, a complex128)

//go:noescape
func jacobiRotateAsm(p, q *complex128, n int, c float64, sp complex128)

//go:noescape
func colGramAsm(p, q *complex128, n int, out *[4]float64)

//go:noescape
func gemmPanelPairC64Asm(c0, c1, a0, a1, pack *complex64, kp, pairs int, store bool)

//go:noescape
func gemmPanelRowC64Asm(c0, a0, pack *complex64, kp, pairs int, store bool)
