// Package einsum implements Einstein-summation contraction of dense
// complex tensors, mirroring the role numpy.einsum and Cyclops' einsum
// play for the Koala library. A spec like "abc,cd->abd" names every axis
// with a letter; repeated letters across operands are contracted, letters
// in the output are kept, and letters appearing in a single operand but
// not in the output are summed out.
//
// Multi-operand contractions are reduced to a sequence of pairwise
// contractions in the order PlanPath chooses (flop-optimal for the
// operand counts the lattice code uses); each pairwise contraction is
// lowered to transposes plus one batched GEMM. Hooks allow
// callers (the simulated distributed backend) to observe every GEMM and
// every transpose's data movement for communication accounting.
package einsum

import (
	"fmt"
	"strings"

	"gokoala/internal/tensor"
)

// Hooks observe the primitive operations a contraction decomposes into.
// Any field may be nil.
type Hooks struct {
	// OnGEMM is called once per batched matrix multiply with the batch
	// count and the m, n, k dimensions of each multiply in the batch.
	OnGEMM func(batch, m, n, k int)
	// OnMove is called with the element count of every materializing
	// transpose (axis reordering that physically moves data).
	OnMove func(elements int)
	// OnContract is called once per top-level contraction with the spec
	// and the aggregate cost of every primitive it decomposed into, so
	// callers get per-contraction totals without reimplementing the GEMM
	// arithmetic.
	OnContract func(spec string, cost Cost)
	// GEMM, when non-nil, replaces the default batched matrix multiply.
	// Operands have shapes [bt, m, k] and [bt, k, n]; the result must have
	// shape [bt, m, n]. The simulated distributed backend routes the
	// computation through its SPMD kernel this way.
	GEMM func(a, b *tensor.Dense) *tensor.Dense
}

// Cost is the aggregate primitive-operation cost of one contraction.
type Cost struct {
	// Flops is the complex multiply-add count of every batched GEMM
	// (sum-out reductions are not included; they are lower order).
	Flops int64
	// MovedElements is the element count of every materializing
	// transpose that relocates data across the leading axis.
	MovedElements int64
	// GEMMs is the number of batched GEMM calls.
	GEMMs int
}

// FlopCount returns the complex multiply-add count of one batched GEMM
// with the given batch count and per-multiply m, n, k dimensions — the
// arithmetic OnGEMM observers would otherwise reimplement.
func FlopCount(batch, m, n, k int) int64 {
	return int64(batch) * int64(m) * int64(n) * int64(k)
}

// Chain returns hooks that invoke both h's and g's observers for every
// primitive. The replacement GEMM kernel is h's when set, else g's
// (kernels execute the multiply, so only one can run).
func (h Hooks) Chain(g Hooks) Hooks {
	out := Hooks{GEMM: h.GEMM}
	if out.GEMM == nil {
		out.GEMM = g.GEMM
	}
	switch {
	case h.OnGEMM != nil && g.OnGEMM != nil:
		hf, gf := h.OnGEMM, g.OnGEMM
		out.OnGEMM = func(batch, m, n, k int) { hf(batch, m, n, k); gf(batch, m, n, k) }
	case h.OnGEMM != nil:
		out.OnGEMM = h.OnGEMM
	default:
		out.OnGEMM = g.OnGEMM
	}
	switch {
	case h.OnMove != nil && g.OnMove != nil:
		hf, gf := h.OnMove, g.OnMove
		out.OnMove = func(elements int) { hf(elements); gf(elements) }
	case h.OnMove != nil:
		out.OnMove = h.OnMove
	default:
		out.OnMove = g.OnMove
	}
	switch {
	case h.OnContract != nil && g.OnContract != nil:
		hf, gf := h.OnContract, g.OnContract
		out.OnContract = func(spec string, cost Cost) { hf(spec, cost); gf(spec, cost) }
	case h.OnContract != nil:
		out.OnContract = h.OnContract
	default:
		out.OnContract = g.OnContract
	}
	return out
}

// Contract evaluates the einsum spec over the operands and returns the
// resulting tensor.
func Contract(spec string, ops ...*tensor.Dense) (*tensor.Dense, error) {
	return ContractWithHooks(spec, ops, Hooks{})
}

// MustContract is Contract but panics on error; intended for specs that
// are compile-time constants in library code.
func MustContract(spec string, ops ...*tensor.Dense) *tensor.Dense {
	out, err := Contract(spec, ops...)
	if err != nil {
		panic(fmt.Sprintf("einsum: %v", err))
	}
	return out
}

// ContractWithHooks evaluates the spec, reporting primitive operations to
// the provided hooks. The contraction is compiled into a Plan memoized
// in a bounded process-wide cache keyed on (spec, operand shapes), so
// hot loops that repeat the same contraction signature — BMPS row
// absorption, expectation sweeps — pay for parsing, path search, and
// permutation layout only once.
func ContractWithHooks(spec string, ops []*tensor.Dense, h Hooks) (*tensor.Dense, error) {
	p, err := cachedPlan(planKindDense, spec, ops)
	if err != nil {
		return nil, err
	}
	return p.execute(ops, h)
}

// ContractInto is ContractWithHooks with the result written into dst,
// which must hold at least as many elements as the result: the same plan
// and the same tape, so the values are those of ContractWithHooks bit for
// bit, with no storage allocated for them. It is for results whose
// lifetime the caller manages (einsumsvd's hoisted operator factors).
// When a replacement GEMM kernel produces the result itself, dst is left
// unused.
func ContractInto(dst []complex128, spec string, ops []*tensor.Dense, h Hooks) (*tensor.Dense, error) {
	p, err := cachedPlan(planKindDense, spec, ops)
	if err != nil {
		return nil, err
	}
	return p.executeInto(dst, ops, h)
}

// contractUncached is the direct evaluation path the plan compiler
// mirrors. It is kept as the reference implementation: equivalence tests
// and benchmarks compare the cached plan path against it.
func contractUncached(spec string, ops []*tensor.Dense, h Hooks) (*tensor.Dense, error) {
	if h.OnContract != nil {
		// Accumulate primitive costs through chained observers and report
		// the per-contraction total once at the end.
		var cost Cost
		acc := Hooks{
			OnGEMM: func(batch, m, n, k int) {
				cost.Flops += FlopCount(batch, m, n, k)
				cost.GEMMs++
			},
			OnMove: func(elements int) { cost.MovedElements += int64(elements) },
		}
		inner := h
		inner.OnContract = nil
		out, err := contractUncached(spec, ops, acc.Chain(inner))
		if err == nil {
			h.OnContract(spec, cost)
		}
		return out, err
	}
	inputs, output, err := parseSpec(spec, len(ops))
	if err != nil {
		return nil, err
	}
	dims, err := resolveDims(inputs, ops)
	if err != nil {
		return nil, fmt.Errorf("einsum %q: %w", spec, err)
	}
	for i := 0; i < len(output); i++ {
		if _, ok := dims[output[i]]; !ok {
			return nil, fmt.Errorf("einsum %q: output letter %q not present in any input", spec, string(output[i]))
		}
	}

	return contractAlongPath(spec, inputs, output, dims, ops, PlanPath(inputs, dims, output), h)
}

// parseSpec splits "ab,bc->ac" into input subscripts and the output
// subscript, validating letter syntax.
func parseSpec(spec string, nops int) ([]string, string, error) {
	parts := strings.Split(spec, "->")
	if len(parts) != 2 {
		return nil, "", fmt.Errorf("einsum %q: spec must contain exactly one \"->\"", spec)
	}
	inputs := strings.Split(parts[0], ",")
	output := strings.TrimSpace(parts[1])
	if len(inputs) != nops {
		return nil, "", fmt.Errorf("einsum %q: %d subscripts but %d operands", spec, len(inputs), nops)
	}
	check := func(s string) error {
		seen := map[byte]bool{}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
				return fmt.Errorf("einsum %q: invalid subscript letter %q", spec, string(c))
			}
			if seen[c] {
				return fmt.Errorf("einsum %q: repeated letter %q within one subscript is not supported", spec, string(c))
			}
			seen[c] = true
		}
		return nil
	}
	for i := range inputs {
		inputs[i] = strings.TrimSpace(inputs[i])
		if err := check(inputs[i]); err != nil {
			return nil, "", err
		}
	}
	if err := check(output); err != nil {
		return nil, "", err
	}
	return inputs, output, nil
}

// resolveDims maps each letter to its dimension, checking consistency.
func resolveDims(inputs []string, ops []*tensor.Dense) (map[byte]int, error) {
	dims := map[byte]int{}
	for i, subs := range inputs {
		if len(subs) != ops[i].Rank() {
			return nil, fmt.Errorf("operand %d has rank %d but subscript %q has %d letters", i, ops[i].Rank(), subs, len(subs))
		}
		for j := 0; j < len(subs); j++ {
			c := subs[j]
			d := ops[i].Dim(j)
			if prev, ok := dims[c]; ok && prev != d {
				return nil, fmt.Errorf("letter %q has conflicting dimensions %d and %d", string(c), prev, d)
			}
			dims[c] = d
		}
	}
	return dims, nil
}

func letterSet(s string) map[byte]bool {
	m := make(map[byte]bool, len(s))
	for i := 0; i < len(s); i++ {
		m[s[i]] = true
	}
	return m
}

// sumOut reduces axes whose letters are not in keep, returning the new
// subscript and tensor.
func sumOut(subs string, t *tensor.Dense, keep map[byte]bool, h Hooks) (string, *tensor.Dense) {
	var keptSubs, dropSubs []byte
	var keptAxes, dropAxes []int
	for i := 0; i < len(subs); i++ {
		if keep[subs[i]] {
			keptSubs = append(keptSubs, subs[i])
			keptAxes = append(keptAxes, i)
		} else {
			dropSubs = append(dropSubs, subs[i])
			dropAxes = append(dropAxes, i)
		}
	}
	if len(dropAxes) == 0 {
		return subs, t
	}
	perm := append(append([]int{}, keptAxes...), dropAxes...)
	tt := maybeTranspose(t, perm, h)
	keptN, dropN := 1, 1
	for _, a := range keptAxes {
		keptN *= t.Dim(a)
	}
	for _, a := range dropAxes {
		dropN *= t.Dim(a)
	}
	m := tt.Reshape(keptN, dropN)
	outShape := make([]int, len(keptAxes))
	for i, a := range keptAxes {
		outShape[i] = t.Dim(a)
	}
	if len(outShape) == 0 {
		outShape = []int{}
	}
	out := tensor.New(append([]int{}, outShape...)...)
	data, src := out.Data(), m.Data()
	tensor.AddFlops(int64(keptN) * int64(dropN))
	for i := 0; i < keptN; i++ {
		var s complex128
		row := src[i*dropN : (i+1)*dropN]
		for _, v := range row {
			s += v
		}
		data[i] = s
	}
	return string(keptSubs), out
}

// maybeTranspose permutes t's axes. Accounting follows a 1-D row-block
// distribution over the leading axis: a permutation that keeps axis 0 in
// place only rearranges data within each rank's local block (no
// redistribution), while a permutation that moves axis 0 relocates every
// element across ranks and is reported to OnMove. Identity permutations
// skip the data movement entirely.
func maybeTranspose(t *tensor.Dense, perm []int, h Hooks) *tensor.Dense {
	identity := true
	for i, p := range perm {
		if p != i {
			identity = false
			break
		}
	}
	if identity {
		return t
	}
	if h.OnMove != nil && len(perm) > 0 && perm[0] != 0 {
		h.OnMove(t.Size())
	}
	return t.Transpose(perm...)
}

// contractPair contracts two tensors over their shared letters that are
// not needed elsewhere, producing subscript batch+freeA+freeB.
func contractPair(sa string, a *tensor.Dense, sb string, b *tensor.Dense, need map[byte]bool, dims map[byte]int, h Hooks) (string, *tensor.Dense) {
	inB := letterSet(sb)
	inA := letterSet(sa)
	// Letters private to one operand and not needed later are summed first.
	keepA := map[byte]bool{}
	for c := range need {
		keepA[c] = true
	}
	for c := range inB {
		keepA[c] = true
	}
	sa, a = sumOut(sa, a, keepA, h)
	keepB := map[byte]bool{}
	for c := range need {
		keepB[c] = true
	}
	for c := range inA {
		keepB[c] = true
	}
	sb, b = sumOut(sb, b, keepB, h)
	inA, inB = letterSet(sa), letterSet(sb)

	var batch, con, freeA, freeB []byte
	for i := 0; i < len(sa); i++ {
		c := sa[i]
		switch {
		case inB[c] && need[c]:
			batch = append(batch, c)
		case inB[c]:
			con = append(con, c)
		default:
			freeA = append(freeA, c)
		}
	}
	for i := 0; i < len(sb); i++ {
		c := sb[i]
		if !inA[c] {
			freeB = append(freeB, c)
		}
	}

	axisOf := func(subs string, c byte) int { return strings.IndexByte(subs, c) }
	permFor := func(subs string, groups ...[]byte) []int {
		var perm []int
		for _, g := range groups {
			for _, c := range g {
				perm = append(perm, axisOf(subs, c))
			}
		}
		return perm
	}
	prod := func(g []byte) int {
		p := 1
		for _, c := range g {
			p *= dims[c]
		}
		return p
	}

	at := maybeTranspose(a, permFor(sa, batch, freeA, con), h).Reshape(prod(batch), prod(freeA), prod(con))
	bt := maybeTranspose(b, permFor(sb, batch, con, freeB), h).Reshape(prod(batch), prod(con), prod(freeB))
	if h.OnGEMM != nil {
		h.OnGEMM(prod(batch), prod(freeA), prod(freeB), prod(con))
	}
	var ct *tensor.Dense
	if h.GEMM != nil {
		ct = h.GEMM(at, bt)
	} else {
		ct = tensor.BatchMatMul(at, bt)
	}

	outSubs := string(batch) + string(freeA) + string(freeB)
	outShape := make([]int, 0, len(outSubs))
	for i := 0; i < len(outSubs); i++ {
		outShape = append(outShape, dims[outSubs[i]])
	}
	return outSubs, ct.Reshape(outShape...)
}
