// Block-sparse einsum: contraction of charge-symmetric tensors
// (tensor.Sym) sector block by sector block. The spec language is the
// dense one; the multi-operand reduction takes the dense planner's
// pairwise order (PlanPath), and every surviving block pair is
// contracted with the ordinary dense machinery — compiled plans (cached
// under their own plan kind), fused batched GEMMs, and the caller's
// hooks — so the per-block kernels are exactly the dense ones.
//
// Restrictions beyond dense einsum, all rooted in charge conservation:
//
//   - a letter may appear in at most two inputs;
//   - contracted letters must join a leg and its dual (same charges and
//     sector dims, opposite directions);
//   - batch letters (shared letters kept in the output) must carry a
//     single charge-0 sector;
//   - summed-out letters must be single-sector legs (the sum then stays
//     within one charge sector; the total charge is adjusted).
//
// None of the PEPS contraction specs need the excluded cases.
package einsum

import (
	"fmt"
	"strings"
	"sync/atomic"

	"gokoala/internal/tensor"
)

// SymCost aggregates what one block-sparse contraction did and what the
// equivalent dense contraction would have done.
type SymCost struct {
	// Blocks is the number of block pairs that were actually contracted.
	Blocks int64
	// Flops is the complex multiply-add count of the executed per-block
	// GEMMs.
	Flops int64
	// DenseFlops is the GEMM flop count the dense engine would have spent
	// on the same pairwise contraction sequence at the full (embedded)
	// dimensions.
	DenseFlops int64
	// OutBlocks is the number of blocks in the result.
	OutBlocks int
	// MaxSectors is the largest per-leg sector count over all operands.
	MaxSectors int
}

// Process-wide symmetric-contraction statistics. Like the plan-cache
// atomics these are maintained unconditionally (they are a handful of
// atomic adds per contraction, not per block), so the /metrics
// flops-saved ratio works without enabling the obs layer.
var (
	symContractions atomic.Int64
	symBlockGEMMs   atomic.Int64
	symFlops        atomic.Int64
	symDenseFlops   atomic.Int64
)

// SymStats returns the cumulative block-sparse contraction counters:
// contractions, executed block pairs, executed GEMM flops, and the
// dense-equivalent GEMM flops of the same contractions.
func SymStats() (contractions, blocks, flops, denseFlops int64) {
	return symContractions.Load(), symBlockGEMMs.Load(), symFlops.Load(), symDenseFlops.Load()
}

// ResetSymStats zeroes the block-sparse contraction counters.
func ResetSymStats() {
	symContractions.Store(0)
	symBlockGEMMs.Store(0)
	symFlops.Store(0)
	symDenseFlops.Store(0)
}

// ContractSym evaluates the einsum spec over block-sparse operands.
func ContractSym(spec string, ops ...*tensor.Sym) (*tensor.Sym, error) {
	out, _, err := ContractSymWithHooks(spec, ops, Hooks{})
	return out, err
}

// MustContractSym is ContractSym but panics on error.
func MustContractSym(spec string, ops ...*tensor.Sym) *tensor.Sym {
	out, err := ContractSym(spec, ops...)
	if err != nil {
		panic(fmt.Sprintf("einsum: %v", err))
	}
	return out
}

// contractBlocks runs one dense contraction on behalf of the
// block-sparse path, through the plan cache under the sym plan kind.
func contractBlocks(spec string, ops []*tensor.Dense, h Hooks) (*tensor.Dense, error) {
	p, err := cachedPlan(planKindSym, spec, ops)
	if err != nil {
		return nil, err
	}
	return p.execute(ops, h)
}

// symNode is one live operand of the pairwise reduction.
type symNode struct {
	subs string
	t    *tensor.Sym
}

// ContractSymWithHooks evaluates the spec block by block, reporting
// every executed per-block primitive to the hooks (OnContract fires
// once, with the aggregate executed cost) and returning the symmetric
// cost summary.
func ContractSymWithHooks(spec string, ops []*tensor.Sym, h Hooks) (*tensor.Sym, SymCost, error) {
	var cost SymCost
	if len(ops) == 0 {
		return nil, cost, fmt.Errorf("einsum %q: no operands", spec)
	}
	mod := ops[0].Mod()
	for i, op := range ops {
		if op.Mod() != mod {
			return nil, cost, fmt.Errorf("einsum %q: operand %d has modulus %d, want %d", spec, i, op.Mod(), mod)
		}
		for j := 0; j < op.Rank(); j++ {
			if n := op.Leg(j).NumSectors(); n > cost.MaxSectors {
				cost.MaxSectors = n
			}
		}
	}
	inputs, output, err := parseSpec(spec, len(ops))
	if err != nil {
		return nil, cost, err
	}
	// Letter occurrence counts and total (embedded) dimensions.
	occur := map[byte]int{}
	dims := map[byte]int{}
	for i, subs := range inputs {
		if len(subs) != ops[i].Rank() {
			return nil, cost, fmt.Errorf("einsum %q: operand %d has rank %d but subscript %q has %d letters",
				spec, i, ops[i].Rank(), subs, len(subs))
		}
		for j := 0; j < len(subs); j++ {
			c := subs[j]
			occur[c]++
			d := ops[i].Leg(j).TotalDim()
			if prev, ok := dims[c]; ok && prev != d {
				return nil, cost, fmt.Errorf("einsum %q: letter %q has conflicting dimensions %d and %d",
					spec, string(c), prev, d)
			}
			dims[c] = d
		}
	}
	for c, n := range occur {
		if n > 2 {
			return nil, cost, fmt.Errorf("einsum %q: letter %q appears in %d inputs; block-sparse contraction supports at most 2",
				spec, string(c), n)
		}
	}
	for i := 0; i < len(output); i++ {
		if _, ok := dims[output[i]]; !ok {
			return nil, cost, fmt.Errorf("einsum %q: output letter %q not present in any input", spec, string(output[i]))
		}
	}

	// Inner hooks: the caller's per-primitive observers plus the actual
	// executed-cost accumulator. OnContract is withheld from per-block
	// contractions and fired once for the whole symmetric contraction.
	var agg Cost
	acc := Hooks{
		OnGEMM: func(batch, m, n, k int) {
			agg.Flops += FlopCount(batch, m, n, k)
			agg.GEMMs++
		},
		OnMove: func(elements int) { agg.MovedElements += int64(elements) },
	}
	inner := h
	inner.OnContract = nil
	inner = acc.Chain(inner)

	nodes := make([]symNode, len(ops))
	for i := range ops {
		nodes[i] = symNode{inputs[i], ops[i]}
	}
	// The dense planner's order on the embedded dims, so the
	// dense-equivalent flop accounting compares like with like.
	for _, step := range PlanPath(inputs, dims, output) {
		i, j := step[0], step[1]
		need := lettersNeeded(output, len(nodes), func(k int) string { return nodes[k].subs }, i, j)
		subs, t, err := contractSymPair(spec, nodes[i].subs, nodes[i].t, nodes[j].subs, nodes[j].t, need, dims, inner, &cost)
		if err != nil {
			return nil, cost, err
		}
		nodes[i] = symNode{subs, t}
		nodes = append(nodes[:j], nodes[j+1:]...)
	}

	res := nodes[0]
	res.subs, res.t, err = symSumOut(spec, res.subs, res.t, letterSet(output), inner)
	if err != nil {
		return nil, cost, err
	}
	if res.subs == output {
		for _, op := range ops {
			if res.t == op {
				res.t = res.t.Clone()
				break
			}
		}
	} else {
		perm := make([]int, len(output))
		for i := 0; i < len(output); i++ {
			p := strings.IndexByte(res.subs, output[i])
			if p < 0 {
				return nil, cost, fmt.Errorf("einsum %q: internal error, letter %q lost", spec, string(output[i]))
			}
			perm[i] = p
		}
		res.t = res.t.Transpose(perm...)
	}
	cost.OutBlocks = res.t.NumBlocks()

	cost.Flops = agg.Flops
	symContractions.Add(1)
	symBlockGEMMs.Add(cost.Blocks)
	symFlops.Add(cost.Flops)
	symDenseFlops.Add(cost.DenseFlops)
	if h.OnContract != nil {
		h.OnContract(spec, agg)
	}
	return res.t, cost, nil
}

// symSumOut reduces legs whose letters are not in keep. Each dropped
// leg must carry a single charge sector — the index sum then stays
// within one block and only shifts the total charge by Dir*q.
func symSumOut(spec, subs string, t *tensor.Sym, keep map[byte]bool, h Hooks) (string, *tensor.Sym, error) {
	var kept []byte
	var keptAxes []int
	dropTotal := 0
	for i := 0; i < len(subs); i++ {
		if keep[subs[i]] {
			kept = append(kept, subs[i])
			keptAxes = append(keptAxes, i)
			continue
		}
		l := t.Leg(i)
		if l.NumSectors() != 1 {
			return "", nil, fmt.Errorf("einsum %q: cannot sum out letter %q over a charged leg with %d sectors",
				spec, string(subs[i]), l.NumSectors())
		}
		dropTotal += l.Dir * l.Charges[0]
	}
	if len(kept) == len(subs) {
		return subs, t, nil
	}
	legs := make([]tensor.Leg, len(keptAxes))
	for i, ax := range keptAxes {
		legs[i] = t.Leg(ax)
	}
	out := tensor.NewSym(t.Mod(), tensor.CanonCharge(t.Total()-dropTotal, t.Mod()), legs)
	blockSpec := subs + "->" + string(kept)
	var blockErr error
	t.EachBlock(func(sectors []int, b *tensor.Dense) {
		if blockErr != nil {
			return
		}
		rb, err := contractBlocks(blockSpec, []*tensor.Dense{b}, h)
		if err != nil {
			blockErr = err
			return
		}
		outSec := make([]int, len(keptAxes))
		for i, ax := range keptAxes {
			outSec[i] = sectors[ax]
		}
		out.AddToBlock(rb, outSec...)
	})
	if blockErr != nil {
		return "", nil, blockErr
	}
	return string(kept), out, nil
}

// contractSymPair contracts two symmetric tensors over their shared
// letters, block pair by block pair.
func contractSymPair(spec, sa string, a *tensor.Sym, sb string, b *tensor.Sym, need map[byte]bool,
	dims map[byte]int, h Hooks, cost *SymCost) (string, *tensor.Sym, error) {
	inA, inB := letterSet(sa), letterSet(sb)
	// Sum out private unneeded letters first (mirrors the dense path).
	keepA := map[byte]bool{}
	for c := range need {
		keepA[c] = true
	}
	for c := range inB {
		keepA[c] = true
	}
	var err error
	sa, a, err = symSumOut(spec, sa, a, keepA, h)
	if err != nil {
		return "", nil, err
	}
	keepB := map[byte]bool{}
	for c := range need {
		keepB[c] = true
	}
	for c := range inA {
		keepB[c] = true
	}
	sb, b, err = symSumOut(spec, sb, b, keepB, h)
	if err != nil {
		return "", nil, err
	}
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
	axA := func(c byte) int { return strings.IndexByte(sa, c) }
	axB := func(c byte) int { return strings.IndexByte(sb, c) }

	// Shared letters: validate charge structure once, up front.
	type sharedAxis struct{ ia, ib int }
	var shared []sharedAxis
	for _, c := range con {
		la, lb := a.Leg(axA(c)), b.Leg(axB(c))
		if !tensor.DualLegs(la, lb) {
			return "", nil, fmt.Errorf("einsum %q: contracted letter %q joins non-dual legs", spec, string(c))
		}
		shared = append(shared, sharedAxis{axA(c), axB(c)})
	}
	for _, c := range batch {
		la, lb := a.Leg(axA(c)), b.Leg(axB(c))
		if la.NumSectors() != 1 || la.Charges[0] != 0 || lb.NumSectors() != 1 || lb.Charges[0] != 0 ||
			la.Dims[0] != lb.Dims[0] {
			return "", nil, fmt.Errorf("einsum %q: batch letter %q requires a single charge-0 sector on both legs", spec, string(c))
		}
		shared = append(shared, sharedAxis{axA(c), axB(c)})
	}

	outSubs := string(batch) + string(freeA) + string(freeB)
	outLegs := make([]tensor.Leg, 0, len(outSubs))
	type outSrc struct {
		fromA bool
		axis  int
	}
	srcs := make([]outSrc, 0, len(outSubs))
	for _, c := range batch {
		outLegs = append(outLegs, a.Leg(axA(c)))
		srcs = append(srcs, outSrc{true, axA(c)})
	}
	for _, c := range freeA {
		outLegs = append(outLegs, a.Leg(axA(c)))
		srcs = append(srcs, outSrc{true, axA(c)})
	}
	for _, c := range freeB {
		outLegs = append(outLegs, b.Leg(axB(c)))
		srcs = append(srcs, outSrc{false, axB(c)})
	}
	out := tensor.NewSym(a.Mod(), tensor.CanonCharge(a.Total()+b.Total(), a.Mod()), outLegs)

	// Dense-equivalent GEMM cost of this pairwise contraction.
	prodDims := func(g []byte) int64 {
		p := int64(1)
		for _, c := range g {
			p *= int64(dims[c])
		}
		return p
	}
	cost.DenseFlops += prodDims(batch) * prodDims(freeA) * prodDims(freeB) * prodDims(con)

	// Collect blocks in canonical order (EachBlock is sorted), then
	// contract every compatible pair. The nested loop order is fixed, so
	// accumulation into output blocks is deterministic.
	var keysA, keysB [][]int
	var blksA, blksB []*tensor.Dense
	a.EachBlock(func(sec []int, blk *tensor.Dense) {
		keysA = append(keysA, append([]int{}, sec...))
		blksA = append(blksA, blk)
	})
	b.EachBlock(func(sec []int, blk *tensor.Dense) {
		keysB = append(keysB, append([]int{}, sec...))
		blksB = append(blksB, blk)
	})
	pairSpec := sa + "," + sb + "->" + outSubs
	for ia, secA := range keysA {
		for ib, secB := range keysB {
			match := true
			for _, sh := range shared {
				if secA[sh.ia] != secB[sh.ib] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			blk, err := contractBlocks(pairSpec, []*tensor.Dense{blksA[ia], blksB[ib]}, h)
			if err != nil {
				return "", nil, err
			}
			outSec := make([]int, len(srcs))
			for i, src := range srcs {
				if src.fromA {
					outSec[i] = secA[src.axis]
				} else {
					outSec[i] = secB[src.axis]
				}
			}
			out.AddToBlock(blk, outSec...)
			cost.Blocks++
		}
	}
	return outSubs, out, nil
}
