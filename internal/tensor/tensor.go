// Package tensor provides dense N-dimensional complex tensors and the
// elementwise, structural, and multiplicative primitives the rest of the
// library is built on. It plays the role NumPy's ndarray plays for the
// original Koala library: contiguous row-major storage, cheap reshapes,
// materialized transposes, and a blocked complex GEMM kernel that all
// higher-level contractions reduce to.
//
// All tensors are immutable-by-convention: operations return new tensors
// unless the method name says otherwise (e.g. ScaleInPlace). Shapes are
// validated eagerly; dimension mismatches panic with a descriptive message
// because they indicate programmer error, not runtime conditions.
package tensor

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"

	"gokoala/internal/pool"
)

// Dense is a dense, row-major, N-dimensional complex tensor.
// A Dense with an empty shape is a scalar holding exactly one element.
type Dense struct {
	shape []int
	data  []complex128
}

// New returns a zero-initialized tensor with the given shape.
// A call with no dimensions produces a scalar.
func New(shape ...int) *Dense {
	n := checkShape(shape)
	return &Dense{shape: append([]int(nil), shape...), data: make([]complex128, n)}
}

// FromData wraps data in a tensor of the given shape. The slice is used
// directly (not copied); callers must not alias it afterwards.
func FromData(data []complex128, shape ...int) *Dense {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %s (size %d)", len(data), fmtInts(shape), n))
	}
	return &Dense{shape: append([]int(nil), shape...), data: data}
}

// Wrap is FromData without the defensive shape copy: both slices are
// used directly. For hot paths (the einsum plan executor) that hold
// immutable precomputed shapes; callers must not mutate either slice
// afterwards.
func Wrap(data []complex128, shape []int) *Dense {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (size %d)", len(data), shape, n))
	}
	return &Dense{shape: shape, data: data}
}

// View returns a header of the given shape with no storage yet, and
// Rebind points a header at storage of its size (nil detaches it again):
// the reuse form of Wrap, for long-lived headers — the matrix views of a
// recycled einsum plan frame — whose storage changes from call to call.
// A detached tensor keeps nothing alive and must be rebound before any
// other use; shape is used directly, as by Wrap.
func View(shape []int) *Dense {
	checkShape(shape)
	return &Dense{shape: shape}
}

// Rebind: see View.
func (t *Dense) Rebind(data []complex128) {
	if data != nil {
		n := 1
		for _, d := range t.shape {
			n *= d
		}
		if len(data) != n {
			panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), t.shape))
		}
	}
	t.data = data
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v complex128) *Dense {
	return &Dense{shape: []int{}, data: []complex128{v}}
}

// Ones returns a tensor of the given shape with every element set to 1.
func Ones(shape ...int) *Dense {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = 1
	}
	return t
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Dense {
	t := New(n, n)
	for i := 0; i < n; i++ {
		t.data[i*n+i] = 1
	}
	return t
}

// Rand returns a tensor with independent real and imaginary parts drawn
// uniformly from [-1, 1), matching the random sketch draws used by
// randomized SVD in the paper (Algorithm 4, step 1).
func Rand(rng *rand.Rand, shape ...int) *Dense {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return t
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %s", d, fmtInts(shape)))
		}
		if n > (1<<62)/d {
			panic(fmt.Sprintf("tensor: shape %s overflows", fmtInts(shape)))
		}
		n *= d
	}
	return n
}

// fmtInts formats a shape or index for a panic message, from a copy:
// handing the slice itself to fmt would make it escape, and every
// variadic New(...), Reshape(...) and At(...) in the tree allocate its
// argument list on the heap for the sake of an error path.
func fmtInts(v []int) string { return fmt.Sprint(append([]int(nil), v...)) }

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Dense) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Dense) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Dense) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Dense) Size() int { return len(t.data) }

// Data returns the backing slice in row-major order. The slice is shared
// with the tensor; mutate with care.
func (t *Dense) Data() []complex128 { return t.data }

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	d := make([]complex128, len(t.data))
	copy(d, t.data)
	return &Dense{shape: append([]int(nil), t.shape...), data: d}
}

// Strides returns row-major strides for shape.
func Strides(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// offset converts a multi-index to a flat offset.
func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %s has wrong rank for shape %v", fmtInts(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %s out of range for shape %v", fmtInts(idx), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Dense) At(idx ...int) complex128 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Dense) Set(v complex128, idx ...int) { t.data[t.offset(idx)] = v }

// Item returns the single element of a scalar (size-1) tensor.
func (t *Dense) Item() complex128 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor of size %d", len(t.data)))
	}
	return t.data[0]
}

// Reshape returns a tensor sharing t's data with a new shape of the same
// total size. Because storage is always contiguous row-major this is free.
func (t *Dense) Reshape(shape ...int) *Dense {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape size %d to %s", len(t.data), fmtInts(shape)))
	}
	return &Dense{shape: append([]int(nil), shape...), data: t.data}
}

// Transpose returns a new contiguous tensor with axes permuted so that
// result axis i is t's axis perm[i]. The copy is cache-blocked and runs
// on the worker pool for large tensors: the paper identifies transposes
// as a dominant einsum cost, so this kernel is on the BMPS hot path.
func (t *Dense) Transpose(perm ...int) *Dense {
	r := len(t.shape)
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: permutation %v has wrong length for rank %d", perm, r))
	}
	seen := make([]bool, r)
	identity := true
	for i, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[p] = true
		if p != i {
			identity = false
		}
	}
	if identity {
		return t.Clone()
	}
	newShape := make([]int, r)
	for i, p := range perm {
		newShape[i] = t.shape[p]
	}
	out := New(newShape...)
	transposeInto(out, t, perm)
	return out
}

// TransposeInto writes t's axis permutation into out: out axis i is t's
// axis perm[i], and out must already have the permuted shape. out is
// overwritten without being read, so it may be an uninitialized or
// recycled buffer (the einsum plan executor runs its materializing
// transposes on recycled scratch through CopyPermuted, the same kernel
// on strides it has precomputed).
func TransposeInto(out, t *Dense, perm ...int) {
	r := len(t.shape)
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: permutation %v has wrong length for rank %d", perm, r))
	}
	seen := make([]bool, r)
	for _, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[p] = true
	}
	transposeInto(out, t, perm)
}

// transposeInto is the shared permuted-copy core; perm is already
// validated.
func transposeInto(out, t *Dense, perm []int) {
	oldStrides := Strides(t.shape)
	// stride of output axis i in the input layout
	srcStride := make([]int, len(perm))
	for i, p := range perm {
		if out.shape[i] != t.shape[p] {
			panic(fmt.Sprintf("tensor: TransposeInto output shape %v does not match %v permuted by %v", out.shape, t.shape, perm))
		}
		srcStride[i] = oldStrides[p]
	}
	CopyPermuted(out.data, t.data, out.shape, srcStride)
}

// transposeGrain is the minimum element count a pool chunk of a
// permuted copy should carry; smaller copies run inline.
const transposeGrain = 32 * 1024

// transposeSmall is the element count below which a permuted copy uses
// the plain odometer loop: tiny transposes are dominated by setup, not
// cache behavior, so the blocked kernel's bookkeeping would be waste.
const transposeSmall = 4096

// copyPermutedSmall is the straightforward odometer copy used for small
// tensors; the innermost two axes are unrolled into explicit loops.
func copyPermutedSmall(dst, src []complex128, dims, srcStride []int) {
	r := len(dims)
	switch r {
	case 0:
		dst[0] = src[0]
		return
	case 1:
		s := srcStride[0]
		for i, off := 0, 0; i < dims[0]; i, off = i+1, off+s {
			dst[i] = src[off]
		}
		return
	}
	outer := dims[:r-2]
	n0, n1 := dims[r-2], dims[r-1]
	s0, s1 := srcStride[r-2], srcStride[r-1]
	var idxArr [8]int // the odometer of any contraction a 10-letter spec produces, kept off the heap
	idx := idxArr[:]
	if len(outer) > len(idxArr) {
		idx = make([]int, len(outer))
	}
	base := 0
	di := 0
	for {
		off0 := base
		for i := 0; i < n0; i++ {
			off := off0
			for j := 0; j < n1; j++ {
				dst[di] = src[off]
				di++
				off += s1
			}
			off0 += s0
		}
		k := len(outer) - 1
		for ; k >= 0; k-- {
			idx[k]++
			base += srcStride[k]
			if idx[k] < outer[k] {
				break
			}
			base -= idx[k] * srcStride[k]
			idx[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// CopyPermuted fills dst (row-major, shape dims) from src where the
// source offset of dst multi-index x is sum_i x[i]*srcStride[i].
//
// The copy is organized for cache behavior on both sides: adjacent
// output axes whose source strides chain are coalesced into one axis,
// then the kernel runs a tiled double loop over the output's innermost
// axis (dst-contiguous) and the axis with the smallest source stride
// (src-contiguous or closest to it), with a plain odometer over the
// remaining axes. Work is split over the worker pool along the odometer
// (or, for matrix-like shapes, along the tiling axis).
//
// It is the kernel under Transpose and TransposeInto, exported for
// callers that hold the strides of a fixed permutation precomputed (the
// einsum plan executor); dst is overwritten without being read.
func CopyPermuted(dst, src []complex128, dims, srcStride []int) {
	if len(dims) != len(srcStride) {
		panic(fmt.Sprintf("tensor: CopyPermuted has %d dims but %d strides", len(dims), len(srcStride)))
	}
	if len(dst) < transposeSmall {
		copyPermutedSmall(dst, src, dims, srcStride)
		return
	}
	// Coalesce: output axes i, i+1 merge when stepping axis i in the
	// source equals stepping axis i+1 dims[i+1] times, i.e. the pair is
	// one contiguous run in both layouts.
	cd := make([]int, 0, len(dims))
	cs := make([]int, 0, len(dims))
	for i := 0; i < len(dims); i++ {
		if n := len(cd); n > 0 && cs[n-1] == srcStride[i]*dims[i] {
			cd[n-1] *= dims[i]
			cs[n-1] = srcStride[i]
			continue
		}
		cd = append(cd, dims[i])
		cs = append(cs, srcStride[i])
	}
	r := len(cd)
	switch r {
	case 0:
		dst[0] = src[0]
		return
	case 1:
		s := cs[0]
		if s == 1 {
			copy(dst, src[:cd[0]])
			return
		}
		for i, off := 0, 0; i < cd[0]; i, off = i+1, off+s {
			dst[i] = src[off]
		}
		return
	}
	dstStride := Strides(cd)

	// The tile pair: the output's innermost axis l (dst stride 1) and
	// the remaining axis e with the smallest source stride. When axis l
	// itself is src-contiguous the tile degenerates to run copies and e
	// groups nearby runs.
	l := r - 1
	e := -1
	for i := 0; i < l; i++ {
		if e < 0 || cs[i] < cs[e] {
			e = i
		}
	}
	nl, sl := cd[l], cs[l]
	ne, se, de := cd[e], cs[e], dstStride[e]

	// Odometer axes: everything except e and l, in output order.
	var oDims, oSrc, oDst []int
	outerN := 1
	for i := 0; i < l; i++ {
		if i == e {
			continue
		}
		oDims = append(oDims, cd[i])
		oSrc = append(oSrc, cs[i])
		oDst = append(oDst, dstStride[i])
		outerN *= cd[i]
	}

	tile := func(sb, db int) {
		if sl == 1 && nl >= 16 {
			for ie := 0; ie < ne; ie++ {
				copy(dst[db+ie*de:db+ie*de+nl], src[sb+ie*se:sb+ie*se+nl])
			}
			return
		}
		if sl == 1 {
			// Short contiguous runs: an inline loop beats memmove setup.
			for ie := 0; ie < ne; ie++ {
				d, s := db+ie*de, sb+ie*se
				for j := 0; j < nl; j++ {
					dst[d+j] = src[s+j]
				}
			}
			return
		}
		const blk = 32
		for ib := 0; ib < ne; ib += blk {
			iMax := min(ib+blk, ne)
			for jb := 0; jb < nl; jb += blk {
				jMax := min(jb+blk, nl)
				for ie := ib; ie < iMax; ie++ {
					d := db + ie*de + jb
					s := sb + ie*se + jb*sl
					for j := jb; j < jMax; j++ {
						dst[d] = src[s]
						d++
						s += sl
					}
				}
			}
		}
	}

	if outerN > 1 {
		grain := transposeGrain / (ne * nl)
		pool.For(outerN, grain, func(lo, hi int) {
			// Decode the first outer index, then advance by odometer.
			idx := make([]int, len(oDims))
			sb, db := 0, 0
			for k, f := len(oDims)-1, lo; k >= 0; k-- {
				q := f % oDims[k]
				idx[k] = q
				sb += q * oSrc[k]
				db += q * oDst[k]
				f /= oDims[k]
			}
			for f := lo; f < hi; f++ {
				tile(sb, db)
				for k := len(oDims) - 1; k >= 0; k-- {
					idx[k]++
					sb += oSrc[k]
					db += oDst[k]
					if idx[k] < oDims[k] {
						break
					}
					sb -= idx[k] * oSrc[k]
					db -= idx[k] * oDst[k]
					idx[k] = 0
				}
			}
		})
		return
	}
	// Matrix-like shape: parallelize along the tiling axis e instead.
	pool.For(ne, transposeGrain/nl, func(lo, hi int) {
		if sl == 1 {
			for ie := lo; ie < hi; ie++ {
				copy(dst[ie*de:ie*de+nl], src[ie*se:ie*se+nl])
			}
			return
		}
		const blk = 32
		for ib := lo; ib < hi; ib += blk {
			iMax := min(ib+blk, hi)
			for jb := 0; jb < nl; jb += blk {
				jMax := min(jb+blk, nl)
				for ie := ib; ie < iMax; ie++ {
					d := ie*de + jb
					s := ie*se + jb*sl
					for j := jb; j < jMax; j++ {
						dst[d] = src[s]
						d++
						s += sl
					}
				}
			}
		}
	})
}

// Conj returns the elementwise complex conjugate.
func (t *Dense) Conj() *Dense {
	out := t.Clone()
	for i, v := range out.data {
		out.data[i] = cmplx.Conj(v)
	}
	return out
}

// ConjInPlace conjugates every element of t.
func (t *Dense) ConjInPlace() {
	for i, v := range t.data {
		t.data[i] = cmplx.Conj(v)
	}
}

// Scale returns alpha * t.
func (t *Dense) Scale(alpha complex128) *Dense {
	out := t.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// ScaleInPlace multiplies every element by alpha.
func (t *Dense) ScaleInPlace(alpha complex128) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Add returns t + u. Shapes must match exactly.
func (t *Dense) Add(u *Dense) *Dense { return t.axpby(1, u, 1) }

// Sub returns t - u. Shapes must match exactly.
func (t *Dense) Sub(u *Dense) *Dense { return t.axpby(1, u, -1) }

// Axpby returns alpha*t + beta*u.
func (t *Dense) Axpby(alpha complex128, u *Dense, beta complex128) *Dense {
	return t.axpby(alpha, u, beta)
}

func (t *Dense) axpby(alpha complex128, u *Dense, beta complex128) *Dense {
	if !SameShape(t.shape, u.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	out := New(t.shape...)
	for i := range out.data {
		out.data[i] = alpha*t.data[i] + beta*u.data[i]
	}
	return out
}

// Norm returns the Frobenius norm sqrt(sum |x|^2).
func (t *Dense) Norm() float64 {
	// Two-pass scaling guards against overflow for very large tensors of
	// large entries; entries here are O(1) so a direct sum is fine, but the
	// scaled form costs little.
	var s float64
	for _, v := range t.data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest elementwise modulus.
func (t *Dense) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dot returns the inner product <t, u> = sum conj(t_i) u_i.
func (t *Dense) Dot(u *Dense) complex128 {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.data), len(u.data)))
	}
	var s complex128
	for i := range t.data {
		s += cmplx.Conj(t.data[i]) * u.data[i]
	}
	return s
}

// Hadamard returns the elementwise product t .* u.
func (t *Dense) Hadamard(u *Dense) *Dense {
	if !SameShape(t.shape, u.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	out := New(t.shape...)
	for i := range out.data {
		out.data[i] = t.data[i] * u.data[i]
	}
	return out
}

// Kron returns the Kronecker product of two matrices (rank-2 tensors).
func Kron(a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: Kron requires rank-2 operands")
	}
	am, an := a.shape[0], a.shape[1]
	bm, bn := b.shape[0], b.shape[1]
	out := New(am*bm, an*bn)
	for i := 0; i < am; i++ {
		for j := 0; j < an; j++ {
			aij := a.data[i*an+j]
			if aij == 0 {
				continue
			}
			for k := 0; k < bm; k++ {
				row := (i*bm + k) * an * bn
				bo := k * bn
				for l := 0; l < bn; l++ {
					out.data[row+j*bn+l] = aij * b.data[bo+l]
				}
			}
		}
	}
	return out
}

// SameShape reports whether two shapes are identical.
func SameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether max |t-u| <= atol + rtol*max|u|.
func AllClose(t, u *Dense, rtol, atol float64) bool {
	if !SameShape(t.shape, u.shape) {
		return false
	}
	tol := atol + rtol*u.MaxAbs()
	for i := range t.data {
		if cmplx.Abs(t.data[i]-u.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones by shape only.
func (t *Dense) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Dense%v", t.shape)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Dense%v[", t.shape)
	for i, v := range t.data {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g%+.4gi", real(v), imag(v))
	}
	b.WriteString("]")
	return b.String()
}
