//go:build !amd64 || purego

package tensor

// Portable build: no assembly kernels. The dispatch layer compiles to
// the pure-Go reference path unconditionally (useAsm is constant false,
// so the asm stubs below are unreachable; they exist to keep the
// call sites building on every platform).

const (
	asmAvailable         = false
	asmUnavailableReason = "built without assembly kernels"
	cpuFeatures          = ""
)

func gemmPanelPairAsm(c0, c1, a0, a1, pack *complex128, kp, pairs int, store bool) {
	panic("tensor: asm kernel called on a purego build")
}

func gemmPanelRowAsm(c0, a0, pack *complex128, kp, pairs int, store bool) {
	panic("tensor: asm kernel called on a purego build")
}

func axpy2Asm(dst, x0, x1 *complex128, n int, a0, a1 complex128, store bool) {
	panic("tensor: asm kernel called on a purego build")
}

func axpy1Asm(dst, x *complex128, n int, a complex128) {
	panic("tensor: asm kernel called on a purego build")
}

func jacobiRotateAsm(p, q *complex128, n int, c float64, sp complex128) {
	panic("tensor: asm kernel called on a purego build")
}

func colGramAsm(p, q *complex128, n int, out *[4]float64) {
	panic("tensor: asm kernel called on a purego build")
}

func gemmPanelPairC64Asm(c0, c1, a0, a1, pack *complex64, kp, pairs int, store bool) {
	panic("tensor: asm kernel called on a purego build")
}

func gemmPanelRowC64Asm(c0, a0, pack *complex64, kp, pairs int, store bool) {
	panic("tensor: asm kernel called on a purego build")
}
