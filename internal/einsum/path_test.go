package einsum

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gokoala/internal/tensor"
)

func specDims(inputs []string, ops []*tensor.Dense) map[byte]int {
	dims, err := resolveDims(inputs, ops)
	if err != nil {
		panic(err)
	}
	return dims
}

// randomNetwork draws nops subscripts of rank 1-4 over a pool of letters
// with mixed dimensions (ones included), no letter in more than maxUse
// operands, and an output made of about a third of the letters used.
func randomNetwork(rng *rand.Rand, nops, maxUse int) (inputs []string, dims map[byte]int, output string) {
	const letters = "abcdefghijkl"
	dims = map[byte]int{}
	for i := 0; i < len(letters); i++ {
		dims[letters[i]] = 1 + rng.Intn(6)
	}
	uses := map[byte]int{}
	for i := 0; i < nops; i++ {
		var subs []byte
		for _, p := range rng.Perm(len(letters))[:1+rng.Intn(4)] {
			if c := letters[p]; uses[c] < maxUse {
				uses[c]++
				subs = append(subs, c)
			}
		}
		inputs = append(inputs, string(subs))
	}
	for i := 0; i < len(letters); i++ {
		if c := letters[i]; uses[c] > 0 && rng.Intn(3) == 0 {
			output += string(c)
		}
	}
	return inputs, dims, output
}

// bruteForceCost is the cheapest total over every pairwise order.
func bruteForceCost(nw *network, nodes []uint64) float64 {
	if len(nodes) == 1 {
		return 0
	}
	best := math.Inf(1)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			next := append([]uint64(nil), nodes...)
			next[i] = nw.merge(nodes, i, j)
			next = append(next[:j], next[j+1:]...)
			best = min(best, nw.size(nodes[i]|nodes[j])+bruteForceCost(nw, next))
		}
	}
	return best
}

// hookEvents records the primitive sequence a contraction reports.
func hookEvents(events *[]string) Hooks {
	return Hooks{
		OnMove: func(n int) { *events = append(*events, fmt.Sprintf("move:%d", n)) },
		OnGEMM: func(b, m, n, k int) { *events = append(*events, fmt.Sprintf("gemm:%d,%d,%d,%d", b, m, n, k)) },
	}
}

func gemmsOf(events []string) []string {
	var out []string
	for _, e := range events {
		if strings.HasPrefix(e, "gemm:") {
			out = append(out, e)
		}
	}
	return out
}

func randomOperands(rng *rand.Rand, inputs []string, dims map[byte]int) []*tensor.Dense {
	ops := make([]*tensor.Dense, len(inputs))
	for i, s := range inputs {
		shape := make([]int, len(s))
		for j := range shape {
			shape[j] = dims[s[j]]
		}
		ops[i] = tensor.Rand(rng, shape...)
	}
	return ops
}

// TestContractOptimalMatchesGreedy checks that the order the planner
// takes changes the cost of a contraction and not its value: Contract
// against the pairwise kernel walked along the greedy order.
func TestContractOptimalMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := []struct {
		spec   string
		shapes [][]int
	}{
		{"ij,jk,kl->il", [][]int{{3, 4}, {4, 5}, {5, 2}}},
		{"ab,bcd,de,cf,eg->afg", [][]int{{2, 3}, {3, 2, 4}, {4, 3}, {2, 2}, {3, 2}}},
		{"gbd,bpe,dqpf->gqef", [][]int{{3, 4, 5}, {4, 2, 6}, {5, 3, 2, 4}}},
		// The two-layer IBMPS operator, where greedy merges bra and ket.
		{"gbcC,buUe,ucdrp,UCDRp,erRz->gdDz", [][]int{{4, 4, 2, 2}, {4, 2, 2, 4}, {2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}, {4, 2, 2, 5}}},
	}
	for _, c := range specs {
		ops := randOperands(rng, c.shapes)
		got := MustContract(c.spec, ops...)
		inputs, output, err := parseSpec(c.spec, len(ops))
		if err != nil {
			t.Fatal(err)
		}
		dims := specDims(inputs, ops)
		greedy, _ := newNetwork(inputs, dims, output).greedy()
		want, err := contractAlongPath(c.spec, inputs, output, dims, ops, greedy, Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if !tensor.AllClose(got, want, 1e-10, 1e-10) {
			t.Fatalf("%s: planned result differs from the greedy order's", c.spec)
		}
	}
}

// TestOptimalNeverWorseThanGreedy is the planner's property suite on
// seeded random networks of 3-6 operands: the subset DP finds the cost
// brute-force enumeration of every pairwise order finds, never more than
// greedy, and where it does not strictly beat greedy the planner returns
// the greedy path and the compiled tape is op for op the greedy one.
func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	strictlyBetter := 0
	for trial := 0; trial < 200; trial++ {
		inputs, dims, output := randomNetwork(rng, 3+rng.Intn(4), 3)
		nw := newNetwork(inputs, dims, output)
		greedy, cg := nw.greedy()
		optimal, co := nw.optimal()
		name := strings.Join(inputs, ",") + "->" + output
		if brute := bruteForceCost(nw, nw.ops); co != brute {
			t.Fatalf("%s: DP cost %g, brute force over every order %g", name, co, brute)
		}
		if c, _ := PathCost(inputs, dims, output, optimal); c != co {
			t.Fatalf("%s: DP reports %g, its path costs %g", name, co, c)
		}
		if c, _ := PathCost(inputs, dims, output, greedy); c != cg {
			t.Fatalf("%s: greedy reports %g, its path costs %g", name, cg, c)
		}
		if co > cg {
			t.Fatalf("%s: optimal cost %g exceeds greedy %g", name, co, cg)
		}
		planned := PlanPath(inputs, dims, output)
		if co < cg {
			strictlyBetter++
			if c, _ := PathCost(inputs, dims, output, planned); c != co {
				t.Fatalf("%s: planner took cost %g, optimal is %g", name, c, co)
			}
			continue
		}
		if !reflect.DeepEqual(planned, greedy) {
			t.Fatalf("%s: DP does not beat greedy, yet the planner left the greedy path: %v vs %v", name, planned, greedy)
		}
		ops := randomOperands(rng, inputs, dims)
		var wantEv, gotEv []string
		if _, err := contractAlongPath(name, inputs, output, dims, ops, greedy, hookEvents(&wantEv)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := Compile(name, shapesOf(ops))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := p.execute(ops, hookEvents(&gotEv)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("%s: compiled tape is not the greedy tape:\n got %v\nwant %v", name, gotEv, wantEv)
		}
	}
	if strictlyBetter == 0 {
		t.Fatal("the DP never beat greedy on 200 random networks; the suite no longer exercises the planner's choice")
	}
}

// TestEvaluatorsTakeTheSameOrder runs seeded random networks through the
// compiled plan, the uncached evaluator and the block-sparse evaluator
// (single charge-0 sectors, so the embedded dims are the dense ones) and
// requires the same primitive sequence from all three.
func TestEvaluatorsTakeTheSameOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		inputs, dims, output := randomNetwork(rng, 3+rng.Intn(4), 2)
		spec := strings.Join(inputs, ",") + "->" + output
		ops := randomOperands(rng, inputs, dims)

		var planEv, uncachedEv, symEv []string
		p, err := Compile(spec, shapesOf(ops))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want, err := p.execute(ops, hookEvents(&planEv))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := contractUncached(spec, ops, hookEvents(&uncachedEv)); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !reflect.DeepEqual(uncachedEv, planEv) {
			t.Fatalf("%s: uncached evaluator and plan disagree:\n%v\n%v", spec, uncachedEv, planEv)
		}

		// Embed: a letter's first leg points out, its second is the dual.
		seen := map[byte]bool{}
		syms := make([]*tensor.Sym, len(ops))
		for i, s := range inputs {
			legs := make([]tensor.Leg, len(s))
			for j := range legs {
				legs[j] = tensor.Leg{Dir: 1, Charges: []int{0}, Dims: []int{dims[s[j]]}}
				if seen[s[j]] {
					legs[j] = legs[j].Dual()
				}
				seen[s[j]] = true
			}
			syms[i] = tensor.NewSym(0, 0, legs)
			syms[i].SetBlock(ops[i], make([]int, len(s))...)
		}
		got, cost, err := ContractSymWithHooks(spec, syms, hookEvents(&symEv))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		// The block-sparse evaluator permutes whole tensors without
		// reporting a move; the pairwise order shows in the GEMMs.
		if !reflect.DeepEqual(gemmsOf(symEv), gemmsOf(planEv)) {
			t.Fatalf("%s: block-sparse evaluator and plan disagree:\n%v\n%v", spec, symEv, planEv)
		}
		if cost.DenseFlops != p.Cost().Flops {
			t.Fatalf("%s: dense-equivalent flops %d, dense plan %d", spec, cost.DenseFlops, p.Cost().Flops)
		}
		denseClose(t, got.ToDense(), want, 1e-10)
	}
}

func TestPlanOptimalChain(t *testing.T) {
	// Matrix chain where association order matters: (AB)C costs
	// 2*100*2 + 2*2*100 = 800, A(BC) 100*2*100 + 2*100*100 = 40000.
	inputs := []string{"ij", "jk", "kl"}
	dims := map[byte]int{'i': 2, 'j': 100, 'k': 2, 'l': 100}
	if cost, _ := PathCost(inputs, dims, "il", PlanPath(inputs, dims, "il")); cost != 800 {
		t.Fatalf("chain cost %g, want 800", cost)
	}
}

// TestPlanTwoLayerOperator pins the case the planner exists for: on the
// two-layer IBMPS operator greedy's first move merges the bra and ket
// sites into the r^8 double-layer tensor.
func TestPlanTwoLayerOperator(t *testing.T) {
	inputs := []string{"gbcC", "buUe", "ucdrp", "UCDRp", "erRz"}
	dims := map[byte]int{'p': 2, 'z': 20}
	for _, c := range []byte("gbe") {
		dims[c] = 16
	}
	for _, c := range []byte("cCuUdDrR") {
		dims[c] = 4
	}
	nw := newNetwork(inputs, dims, "gdDz")
	greedy, cg := nw.greedy()
	if greedy[0] != [2]int{2, 3} || cg != 19267584 {
		t.Fatalf("greedy starts with %v at cost %g, want the bra-ket merge [2 3] at 19267584", greedy[0], cg)
	}
	planned := PlanPath(inputs, dims, "gdDz")
	cost, largest := PathCost(inputs, dims, "gdDz", planned)
	if cost != 6553600 || largest != 131072 {
		t.Fatalf("planned cost %g with largest intermediate %g, want 6553600 and 131072", cost, largest)
	}
	if planned[0] == [2]int{2, 3} {
		t.Fatalf("planned path %v still merges bra and ket first", planned)
	}
}

func TestPathCostRejectsBadPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PathCost([]string{"ij", "jk"}, map[byte]int{'i': 2, 'j': 2, 'k': 2}, "ik", Path{{1, 1}})
}

// TestPlanOptimalFallsBackBeyondLimit: one operand past the cutoff the
// planner returns the greedy path even where the DP would beat it.
func TestPlanOptimalFallsBackBeyondLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := maxOptimalOperands + 1
	heldBack := 0
	for trial := 0; trial < 10; trial++ {
		inputs, dims, output := randomNetwork(rng, n, 3)
		nw := newNetwork(inputs, dims, output)
		greedy, cg := nw.greedy()
		planned := PlanPath(inputs, dims, output)
		if len(planned) != n-1 || !reflect.DeepEqual(planned, greedy) {
			t.Fatalf("%v: path %v above the cutoff, want the greedy path %v", inputs, planned, greedy)
		}
		if _, co := nw.optimal(); co < cg {
			heldBack++
		}
	}
	if heldBack == 0 {
		t.Fatal("the DP beat greedy on none of the networks; the test does not show the cutoff at work")
	}
}

// BenchmarkPlanPath times a plan miss's path search on a ring network
// (operand i shares a bond with i+1 and carries one open leg), the
// measurement maxOptimalOperands is set from.
func BenchmarkPlanPath(b *testing.B) {
	const bonds, open = "abcdefghijklmnop", "ABCDEFGHIJKLMNOP"
	for _, n := range []int{4, 6, 8, maxOptimalOperands, maxOptimalOperands + 1} {
		inputs := make([]string, n)
		dims := map[byte]int{}
		var output string
		for i := range inputs {
			inputs[i] = string([]byte{bonds[i], open[i], bonds[(i+1)%n]})
			dims[bonds[i]], dims[open[i]] = 2+i%5, 2+i%3
			output += string(open[i])
		}
		nw := newNetwork(inputs, dims, output)
		b.Run(fmt.Sprintf("dp-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw.optimal()
			}
		})
	}
	inputs, dims := make([]string, maxOptimalOperands), map[byte]int{}
	for i := range inputs {
		inputs[i] = string([]byte{bonds[i], open[i], bonds[(i+1)%len(inputs)]})
		dims[bonds[i]], dims[open[i]] = 2+i%5, 2+i%3
	}
	b.Run("planpath-at-cutoff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PlanPath(inputs, dims, open[:len(inputs)])
		}
	})
}
