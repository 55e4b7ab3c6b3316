package tensor

// Kernel dispatch: the packed-panel GEMM, the scatter accumulators, the
// Jacobi column-pair kernels (Gram triple and rotation apply) and the
// Householder reflector passes each exist twice — a portable pure-Go
// reference and an AVX2+FMA assembly microkernel (gemm_amd64.s). The
// assembly is selected at process start by CPU-feature detection and can
// be overridden per process:
//
//   - build tag "purego" removes the assembly entirely (asmAvailable is
//     constant false and the .s files are excluded);
//   - KOALA_KERNEL=go forces the reference kernels on capable hardware,
//     KOALA_KERNEL=asm asks for the assembly and is ignored (with a
//     recorded reason) when the CPU lacks AVX2/FMA;
//   - SetKernel does the same programmatically (the -kernel CLI flag).
//
// The choice is global and made once per GEMM call, never per worker, so
// the worker-count bit-identity contract of the lattice scheduler holds
// under either kernel: every output element sees the same arithmetic
// regardless of how rows are split over the pool. The Go and assembly
// kernels themselves differ in rounding (the assembly contracts
// multiply-adds with FMA and sums lanes pairwise); the randomized
// equivalence suite in kernel_test.go pins the tolerance policy, and
// DESIGN.md section 13 documents it.

import (
	"fmt"
	"math/cmplx"
	"os"
	"sync/atomic"

	"gokoala/internal/obs"
)

// Kernel-call observability: how many GEMM invocations each variant
// served (the mixed counter tracks the opt-in complex64 sketch path).
var (
	obsGEMMAsm   = obs.NewCounter("kernel.gemm_asm")
	obsGEMMGo    = obs.NewCounter("kernel.gemm_go")
	obsGEMMMixed = obs.NewCounter("kernel.gemm_mixed")
)

const (
	kernelAuto int32 = iota
	kernelGo
	kernelAsm
)

// kernelMode holds the process-wide override (kernelAuto by default).
var kernelMode atomic.Int32

func init() {
	if v, ok := os.LookupEnv("KOALA_KERNEL"); ok {
		if err := SetKernel(v); err != nil {
			// Environment overrides must not abort library users; fall back
			// to auto-detection but leave a trace on stderr.
			fmt.Fprintf(os.Stderr, "tensor: ignoring KOALA_KERNEL=%q: %v\n", v, err)
		}
	}
}

// SetKernel selects the kernel implementation: "go" forces the portable
// reference kernels, "asm" requires the AVX2+FMA assembly (an error when
// the build or CPU lacks it), and "auto" (or "") restores CPU-feature
// dispatch. It backs the KOALA_KERNEL environment override and the
// -kernel CLI flag; tests use it to pin a variant.
func SetKernel(name string) error {
	switch name {
	case "", "auto":
		kernelMode.Store(kernelAuto)
	case "go":
		kernelMode.Store(kernelGo)
	case "asm":
		if !asmAvailable {
			return fmt.Errorf("tensor: asm kernels unavailable (%s)", asmUnavailableReason)
		}
		kernelMode.Store(kernelAsm)
	default:
		return fmt.Errorf("tensor: unknown kernel %q (want go|asm|auto)", name)
	}
	return nil
}

// useAsm reports whether the assembly kernels serve the next call.
func useAsm() bool {
	switch kernelMode.Load() {
	case kernelGo:
		return false
	default:
		return asmAvailable
	}
}

// KernelVariant names the kernel implementation currently dispatched to:
// "avx2" for the assembly microkernels, "go" for the portable reference.
// Recorded in BENCH_<suite>.json and the koala_run_info telemetry labels.
func KernelVariant() string {
	if useAsm() {
		return "avx2"
	}
	return "go"
}

// CPUFeatures returns the comma-separated vector features detected on
// this CPU that the kernel layer cares about (empty on non-amd64 or
// purego builds, where detection is compiled out).
func CPUFeatures() string { return cpuFeatures }

// JacobiRotate applies the two-column Jacobi update
//
//	p[i] = c*p[i] - conj(s*phase)*q[i]
//	q[i] = s*phase*p[i] + c*q[i]
//
// in place. It is the inner loop of the one-sided Jacobi SVD in
// internal/linalg (which charges its flops analytically, once per
// factorization — none of the column kernels here count). The update is
// purely elementwise, so both kernel variants are invariant under any
// row split.
func JacobiRotate(p, q []complex128, c float64, s float64, phase complex128) {
	if len(p) == 0 {
		return
	}
	sp := complex(s, 0) * phase
	if useAsm() {
		jacobiRotateAsm(&p[0], &q[0], len(p), c, sp)
		return
	}
	cc := complex(c, 0)
	spc := complex(real(sp), -imag(sp))
	q = q[:len(p)]
	for i := range p {
		pi, qi := p[i], q[i]
		p[i] = cc*pi - spc*qi
		q[i] = sp*pi + cc*qi
	}
}

// ColGram returns the Gram triple of a column pair in one pass over the
// data: alpha = ||p||^2, beta = ||q||^2 and gamma = p* q. It is the
// convergence test of the one-sided Jacobi SVD in internal/linalg. Each
// sum is a fixed-order reduction over the column (serial in the Go
// variant; eight lane accumulators folded once at the end in the
// assembly), so the result depends only on the data and the kernel
// variant, never on the worker count.
func ColGram(p, q []complex128) (alpha, beta float64, gamma complex128) {
	if len(p) == 0 {
		return 0, 0, 0
	}
	q = q[:len(p)]
	if useAsm() {
		var out [4]float64
		colGramAsm(&p[0], &q[0], len(p), &out)
		return out[0], out[1], complex(out[2], out[3])
	}
	var re, im float64
	for i, pi := range p {
		pr, pim := real(pi), imag(pi)
		qr, qim := real(q[i]), imag(q[i])
		alpha += pr*pr + pim*pim
		beta += qr*qr + qim*qim
		re += pr*qr + pim*qim
		im += pr*qim - pim*qr
	}
	return alpha, beta, complex(re, im)
}

// ReflectorProject computes w = v* A for the len(v)-by-len(w) block of
// a row-major matrix that starts at a[0] with row stride `stride`: the
// first pass of applying a Householder reflector H = I - tau v v* from
// the left. Rows are read contiguously; every w[c] accumulates the rows
// in a fixed order (one at a time in the Go variant, in pairs in the
// assembly), independent of how a caller splits the columns. A row whose
// v entry is zero is not read in either variant, so a non-finite entry
// there stays out of w.
func ReflectorProject(w, a []complex128, stride int, v []complex128) {
	n := len(w)
	if n == 0 {
		return
	}
	clear(w)
	if useAsm() {
		i := 0
		for ; i+1 < len(v); i += 2 {
			v0, v1 := cmplx.Conj(v[i]), cmplx.Conj(v[i+1])
			switch {
			case v0 != 0 && v1 != 0:
				axpy2Asm(&w[0], &a[i*stride], &a[(i+1)*stride], n, v0, v1, false)
			case v0 != 0:
				axpy1Asm(&w[0], &a[i*stride], n, v0)
			case v1 != 0:
				axpy1Asm(&w[0], &a[(i+1)*stride], n, v1)
			}
		}
		if i < len(v) && v[i] != 0 {
			axpy1Asm(&w[0], &a[i*stride], n, cmplx.Conj(v[i]))
		}
		return
	}
	for i, x := range v {
		vi := cmplx.Conj(x)
		if vi == 0 {
			continue
		}
		row := a[i*stride : i*stride+n]
		for c, r := range row {
			w[c] += vi * r
		}
	}
}

// ReflectorUpdate applies A -= tau v w to the same block: the second
// pass of the reflector application. Purely elementwise, so both kernel
// variants are invariant under any row or column split; a row whose v
// entry is zero is left untouched.
func ReflectorUpdate(a []complex128, stride int, v, w []complex128, tau float64) {
	n := len(w)
	if n == 0 {
		return
	}
	asm := useAsm()
	ct := complex(tau, 0)
	for i, x := range v {
		f := ct * x
		if f == 0 {
			continue
		}
		if asm {
			axpy1Asm(&a[i*stride], &w[0], n, -f)
			continue
		}
		row := a[i*stride : i*stride+n]
		for c := range row {
			row[c] -= f * w[c]
		}
	}
}
