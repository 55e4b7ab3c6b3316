package einsum

import (
	"math"
	"math/rand"
	"testing"

	"gokoala/internal/tensor"
)

// eachTuple enumerates sector tuples of the legs in lexicographic order.
func eachTuple(legs []tensor.Leg, f func(sec []int)) {
	sec := make([]int, len(legs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(legs) {
			f(sec)
			return
		}
		for s := 0; s < legs[i].NumSectors(); s++ {
			sec[i] = s
			rec(i + 1)
		}
	}
	rec(0)
}

// randSymTensor fills every allowed block of the structure with random
// data.
func randSymTensor(rng *rand.Rand, mod, total int, legs []tensor.Leg) *tensor.Sym {
	s := tensor.NewSym(mod, total, legs)
	eachTuple(legs, func(sec []int) {
		if !s.Allowed(sec) {
			return
		}
		shape := make([]int, len(sec))
		for i, x := range sec {
			shape[i] = legs[i].Dims[x]
		}
		s.SetBlock(tensor.Rand(rng, shape...), sec...)
	})
	return s
}

func denseClose(t *testing.T, got, want *tensor.Dense, tol float64) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("size %d, want %d", len(gd), len(wd))
	}
	for i := range gd {
		d := gd[i] - wd[i]
		if math.Hypot(real(d), imag(d)) > tol {
			t.Fatalf("element %d: %v, want %v", i, gd[i], wd[i])
		}
	}
}

func q2(dims ...int) tensor.Leg {
	return tensor.Leg{Dir: 1, Charges: []int{0, 1}, Dims: dims}
}

func TestContractSymPairMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mod := range []int{0, 2} {
		bond := q2(2, 3)
		a := randSymTensor(rng, mod, 1, []tensor.Leg{q2(2, 2), bond})
		b := randSymTensor(rng, mod, 0, []tensor.Leg{bond.Dual(), q2(3, 1)})
		got, err := ContractSym("ik,kj->ij", a, b)
		if err != nil {
			t.Fatalf("mod %d: %v", mod, err)
		}
		if gt := got.Total(); gt != tensor.CanonCharge(1, mod) {
			t.Fatalf("mod %d: output total %d", mod, gt)
		}
		want := MustContract("ik,kj->ij", a.ToDense(), b.ToDense())
		denseClose(t, got.ToDense(), want, 1e-12)
	}
}

func TestContractSymMultiOperandMatchesDense(t *testing.T) {
	// Three operands with two contracted bonds and a transposed output:
	// exercises the greedy pairwise order and the final permutation.
	rng := rand.New(rand.NewSource(22))
	x := q2(2, 2)
	y := q2(3, 2)
	a := randSymTensor(rng, 0, 0, []tensor.Leg{q2(2, 1), x})
	b := randSymTensor(rng, 0, 1, []tensor.Leg{x.Dual(), y})
	c := randSymTensor(rng, 0, 0, []tensor.Leg{y.Dual(), q2(2, 2)})
	got := MustContractSym("ax,xy,yd->da", a, b, c)
	want := MustContract("ax,xy,yd->da", a.ToDense(), b.ToDense(), c.ToDense())
	denseClose(t, got.ToDense(), want, 1e-12)
}

func TestContractSymTracesOutSingleSectorLeg(t *testing.T) {
	// Summed-out letters are allowed on single-sector legs only; the
	// total charge shifts by the dropped leg's Dir*q.
	rng := rand.New(rand.NewSource(23))
	single := tensor.Leg{Dir: 1, Charges: []int{1}, Dims: []int{3}}
	a := randSymTensor(rng, 0, 1, []tensor.Leg{q2(2, 2), single})
	got := MustContractSym("is->i", a)
	if got.Total() != 0 {
		t.Fatalf("total %d after dropping a charge-1 leg, want 0", got.Total())
	}
	want := MustContract("is->i", a.ToDense())
	denseClose(t, got.ToDense(), want, 1e-12)

	multi := randSymTensor(rng, 0, 0, []tensor.Leg{q2(2, 2), q2(2, 2).Dual()})
	if _, err := ContractSym("is->i", multi); err == nil {
		t.Fatal("summing out a charged multi-sector leg must fail")
	}
}

func TestContractSymRejectsNonDualLegs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	shifted := tensor.Leg{Dir: -1, Charges: []int{0, 2}, Dims: []int{2, 2}}
	a := randSymTensor(rng, 0, 0, []tensor.Leg{q2(2, 2), q2(2, 2).Dual()})
	b := randSymTensor(rng, 0, 2, []tensor.Leg{shifted, q2(2, 2)})
	// "k" joins legs with equal total dim but different charge content —
	// not a contractible bond.
	if _, err := ContractSym("ik,kj->ij", a, b); err == nil {
		t.Fatal("contracting non-dual legs must fail")
	}
}

func TestContractSymSavesFlops(t *testing.T) {
	// A block-diagonal matrix product: two 4x4 sectors instead of one
	// dense 8x8 GEMM, so the executed flops must be well under dense.
	rng := rand.New(rand.NewSource(25))
	bond := tensor.Leg{Dir: 1, Charges: []int{0, 1}, Dims: []int{4, 4}}
	a := randSymTensor(rng, 0, 0, []tensor.Leg{bond, bond.Dual()})
	b := randSymTensor(rng, 0, 0, []tensor.Leg{bond, bond.Dual()})
	_, cost, err := ContractSymWithHooks("ik,kj->ij", []*tensor.Sym{a, b}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if cost.DenseFlops < 2*cost.Flops {
		t.Fatalf("expected >=2x flop saving, executed %d dense-equiv %d", cost.Flops, cost.DenseFlops)
	}
	if cost.Blocks != 2 || cost.OutBlocks != 2 {
		t.Fatalf("blocks %d out %d, want 2 and 2", cost.Blocks, cost.OutBlocks)
	}
}

func TestSymStatsAccumulate(t *testing.T) {
	ResetSymStats()
	rng := rand.New(rand.NewSource(26))
	bond := q2(2, 2)
	a := randSymTensor(rng, 0, 0, []tensor.Leg{q2(2, 2), bond})
	b := randSymTensor(rng, 0, 0, []tensor.Leg{bond.Dual(), q2(2, 2)})
	MustContractSym("ik,kj->ij", a, b)
	contr, blocks, flops, dense := SymStats()
	if contr != 1 || blocks == 0 || flops == 0 || dense < flops {
		t.Fatalf("stats contractions=%d blocks=%d flops=%d dense=%d", contr, blocks, flops, dense)
	}
	ResetSymStats()
	if c, _, _, _ := SymStats(); c != 0 {
		t.Fatal("ResetSymStats did not clear counters")
	}
}

// TestPlanKeyKindSeparation is the plan-cache regression for the
// block-sparse backend: a dense contraction and a per-block symmetric
// contraction with the same spec and operand shapes must cache under
// different keys, so neither can serve the other's compiled plan.
func TestPlanKeyKindSeparation(t *testing.T) {
	ops := []*tensor.Dense{tensor.New(2, 3), tensor.New(3, 4)}
	kd := string(appendPlanKey(nil, planKindDense, "ik,kj->ij", ops))
	ks := string(appendPlanKey(nil, planKindSym, "ik,kj->ij", ops))
	if kd == ks {
		t.Fatalf("dense and sym plan keys collide: %q", kd)
	}
	// Both kinds must still distinguish specs and shapes as before.
	if string(appendPlanKey(nil, planKindSym, "ik,kj->ij", ops)) != ks {
		t.Fatal("sym plan key not deterministic")
	}
	ops2 := []*tensor.Dense{tensor.New(2, 5), tensor.New(5, 4)}
	if string(appendPlanKey(nil, planKindSym, "ik,kj->ij", ops2)) == ks {
		t.Fatal("sym plan key ignores operand shapes")
	}
}

func TestPlanCacheServesBothKinds(t *testing.T) {
	// Interleave dense and block-sparse contractions of the same spec
	// whose per-block shapes coincide with the dense shapes; both must
	// stay correct with the shared cache warm.
	ResetPlanCache()
	rng := rand.New(rand.NewSource(27))
	single := tensor.Leg{Dir: 1, Charges: []int{0}, Dims: []int{3}}
	for i := 0; i < 3; i++ {
		da := tensor.Rand(rng, 3, 3)
		db := tensor.Rand(rng, 3, 3)
		want := naiveEinsum(t, "ik,kj->ij", da, db)
		denseClose(t, MustContract("ik,kj->ij", da, db), want, 1e-12)

		sa := randSymTensor(rng, 0, 0, []tensor.Leg{single, single.Dual()})
		sb := randSymTensor(rng, 0, 0, []tensor.Leg{single, single.Dual()})
		got := MustContractSym("ik,kj->ij", sa, sb)
		denseClose(t, got.ToDense(), naiveEinsum(t, "ik,kj->ij", sa.ToDense(), sb.ToDense()), 1e-12)
	}
}
