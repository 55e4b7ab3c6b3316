package einsum

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"gokoala/internal/tensor"
)

// This file is the one contraction-order planner. Compile, the uncached
// reference evaluator and the block-sparse evaluator all ask PlanPath for
// the pairwise order and walk it; none of them searches on its own, so
// the three take the same order for the same spec and shapes.

// A Path is a contraction order: each step names two current node
// indices to contract; the result replaces the lower index and the
// higher index is removed (numpy.einsum_path convention, normalized so
// step pairs are (low, high)).
type Path [][2]int

// maxOptimalOperands is the operand count up to which PlanPath runs the
// subset DP. The DP enumerates 3^n/2 splits, so its time triples per
// operand: BenchmarkPlanPath on a ring network (Xeon 2.6 GHz, go1.24,
// -cpu 1) reads 0.6 us at 4 operands, 4 us at 6, 45 us at 8, 0.44 ms at
// 10 and 1.4 ms at 11, with 6 allocations throughout (the string-and-map
// DP this replaces took 40 ms at 10 and 474 ms at 12). The cutoff is the
// largest count whose plan miss stays under 1 ms; the lattice code's
// specs have at most 6 operands.
const maxOptimalOperands = 10

// network is the planner's view of a contraction: every operand and the
// output as a set of letters, one bit per letter, and the dimension of
// each letter. A pairwise step over operand sets A and B is modeled at
// the product of the dimensions of the letters of A|B (the GEMM's
// batch*m*n*k when no private letter is summed first), and it keeps the
// letters still needed by the output or by another operand.
type network struct {
	ops []uint64
	out uint64
	dim [52]float64
}

// letterBit maps a-z to bits 0-25 and A-Z to bits 26-51.
func letterBit(c byte) uint {
	if c >= 'a' {
		return uint(c - 'a')
	}
	return uint(c-'A') + 26
}

func letterMask(s string) uint64 {
	var m uint64
	for i := 0; i < len(s); i++ {
		m |= 1 << letterBit(s[i])
	}
	return m
}

func newNetwork(inputs []string, dims map[byte]int, output string) *network {
	nw := &network{ops: make([]uint64, len(inputs)), out: letterMask(output)}
	for i, s := range inputs {
		nw.ops[i] = letterMask(s)
	}
	for c, d := range dims {
		nw.dim[letterBit(c)] = float64(d)
	}
	return nw
}

// size is the product of the dimensions of the letters in m.
func (nw *network) size(m uint64) float64 {
	s := 1.0
	for ; m != 0; m &= m - 1 {
		s *= nw.dim[bits.TrailingZeros64(m)]
	}
	return s
}

// PlanPath returns the order in which inputs are contracted into output:
// the flop-optimal order from a dynamic program over operand subsets up
// to maxOptimalOperands operands, the greedy cheapest-pair-first order
// beyond. Where the optimal order's modeled cost is not strictly below
// the greedy order's, the greedy order is returned, so a contraction
// greedy already planned optimally keeps its tape op for op.
func PlanPath(inputs []string, dims map[byte]int, output string) Path {
	n := len(inputs)
	if n < 2 {
		return nil
	}
	if n == 2 {
		return Path{{0, 1}}
	}
	nw := newNetwork(inputs, dims, output)
	path, cost := nw.greedy()
	if n <= maxOptimalOperands {
		if p, c := nw.optimal(); c < cost {
			return p
		}
	}
	return path
}

// greedy contracts the cheapest pair first, the first such pair in
// (i, j) order on ties, and returns the path with its modeled cost.
func (nw *network) greedy() (Path, float64) {
	nodes := append([]uint64(nil), nw.ops...)
	path := make(Path, 0, len(nodes)-1)
	total := 0.0
	for len(nodes) > 1 {
		bi, bj := 0, 1
		best := math.Inf(1)
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if cost := nw.size(nodes[i] | nodes[j]); cost < best {
					best, bi, bj = cost, i, j
				}
			}
		}
		total += best
		path = append(path, [2]int{bi, bj})
		nodes[bi] = nw.merge(nodes, bi, bj)
		nodes = append(nodes[:bj], nodes[bj+1:]...)
	}
	return path, total
}

// merge returns the letters the contraction of nodes i and j keeps: those
// of either that the output or a third node still needs.
func (nw *network) merge(nodes []uint64, i, j int) uint64 {
	need := nw.out
	for k, m := range nodes {
		if k != i && k != j {
			need |= m
		}
	}
	return (nodes[i] | nodes[j]) & need
}

// optimal returns a minimum-cost pairwise order by dynamic programming
// over operand subsets (the classical O(3^n) algorithm) under the same
// cost model as greedy, and that cost. Every table is indexed by the
// subset's operand bitmask; the inner loop touches no map and no string.
func (nw *network) optimal() (Path, float64) {
	n := len(nw.ops)
	full := 1<<n - 1
	// union[set] holds the letters of the operands in set; a subset's
	// result keeps those the output or an operand outside it also has.
	union := make([]uint64, full+1)
	for set := 1; set <= full; set++ {
		low := set & -set
		union[set] = union[set^low] | nw.ops[bits.TrailingZeros(uint(low))]
	}
	kept := make([]uint64, full+1)
	cost := make([]float64, full+1)
	split := make([]int, full+1)
	for set := 1; set <= full; set++ {
		if set&(set-1) == 0 {
			kept[set] = union[set] // an operand enters as it is
			continue
		}
		kept[set] = union[set] & (nw.out | union[full^set])
		best := math.Inf(1)
		// Enumerate the proper sub-subsets that leave the lowest operand
		// on the left, which visits every unordered split once.
		rest := set &^ (set & -set)
		for right := rest; right > 0; right = (right - 1) & rest {
			left := set ^ right
			base := cost[left] + cost[right]
			if base >= best {
				continue
			}
			if c := base + nw.size(kept[left]|kept[right]); c < best {
				best, split[set] = c, right
			}
		}
		cost[set] = best
	}

	// Linearize the split tree into pairwise steps over a live node list,
	// children before parents; live[i] is the subset node i stands for.
	live := make([]int, n)
	for i := range live {
		live[i] = 1 << i
	}
	path := make(Path, 0, n-1)
	var emit func(set int)
	emit = func(set int) {
		if set&(set-1) == 0 {
			return
		}
		left, right := set^split[set], split[set]
		emit(left)
		emit(right)
		i, j := indexOf(live, left), indexOf(live, right)
		if i > j {
			i, j = j, i
		}
		path = append(path, [2]int{i, j})
		live[i] = set
		live = append(live[:j], live[j+1:]...)
	}
	emit(full)
	return path, cost[full]
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	panic("einsum: internal path reconstruction error")
}

// PathCost evaluates a path under the planner's cost model: the modeled
// complex multiply-adds of its steps, and the element count of the
// largest tensor a step produces.
func PathCost(inputs []string, dims map[byte]int, output string, path Path) (cmacs, largest float64) {
	nw := newNetwork(inputs, dims, output)
	nodes := append([]uint64(nil), nw.ops...)
	for _, step := range path {
		i, j := step[0], step[1]
		if i < 0 || j >= len(nodes) || i >= j {
			panic(fmt.Sprintf("einsum: invalid path step %v over %d nodes", step, len(nodes)))
		}
		cmacs += nw.size(nodes[i] | nodes[j])
		nodes[i] = nw.merge(nodes, i, j)
		largest = max(largest, nw.size(nodes[i]))
		nodes = append(nodes[:j], nodes[j+1:]...)
	}
	return cmacs, largest
}

// lettersNeeded reports the letters required by the output or by the
// nodes other than i and j, subs(k) being the subscript of node k of n.
func lettersNeeded(output string, n int, subs func(k int) string, i, j int) map[byte]bool {
	need := letterSet(output)
	for k := 0; k < n; k++ {
		if k == i || k == j {
			continue
		}
		s := subs(k)
		for x := 0; x < len(s); x++ {
			need[s[x]] = true
		}
	}
	return need
}

// contractAlongPath executes a planned path with the pairwise kernel.
func contractAlongPath(spec string, inputs []string, output string, dims map[byte]int, ops []*tensor.Dense, path Path, h Hooks) (*tensor.Dense, error) {
	type node struct {
		subs string
		t    *tensor.Dense
	}
	nodes := make([]node, len(ops))
	for i := range ops {
		nodes[i] = node{inputs[i], ops[i]}
	}
	for _, step := range path {
		i, j := step[0], step[1]
		if i < 0 || j >= len(nodes) || i >= j {
			return nil, fmt.Errorf("einsum %q: invalid path step %v", spec, step)
		}
		need := lettersNeeded(output, len(nodes), func(k int) string { return nodes[k].subs }, i, j)
		subs, t := contractPair(nodes[i].subs, nodes[i].t, nodes[j].subs, nodes[j].t, need, dims, h)
		nodes[i] = node{subs, t}
		nodes = append(nodes[:j], nodes[j+1:]...)
	}
	res := nodes[0]
	// Sum out any letters not in the output, then permute to output order.
	res.subs, res.t = sumOut(res.subs, res.t, letterSet(output), h)
	if res.subs == output {
		// An identity spec can pass the input tensor straight through;
		// clone so the result never aliases caller-owned data.
		for _, op := range ops {
			if res.t == op {
				return res.t.Clone(), nil
			}
		}
		return res.t, nil
	}
	perm := make([]int, len(output))
	for i := 0; i < len(output); i++ {
		p := strings.IndexByte(res.subs, output[i])
		if p < 0 {
			return nil, fmt.Errorf("einsum %q: internal error, letter %q lost", spec, string(output[i]))
		}
		perm[i] = p
	}
	return maybeTranspose(res.t, perm, h), nil
}
