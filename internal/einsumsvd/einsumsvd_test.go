package einsumsvd

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/tensor"
)

func strategies(rng *rand.Rand) map[string]Strategy {
	return map[string]Strategy{
		"explicit": Explicit{},
		"implicit": ImplicitRand{NIter: 2, Oversample: 4, Rng: rng},
	}
}

func TestFullRankFactorizationReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := backend.NewDense()
	// Two-site network: rank large enough to be exact.
	m1 := tensor.Rand(rng, 2, 3, 4)
	m2 := tensor.Rand(rng, 4, 3, 2)
	want := einsum.MustContract("apb,bqc->apqc", m1, m2)
	for name, st := range strategies(rng) {
		a, b, s, err := st.Factor(eng, "apb,bqc->apx|xqc", 6, m1, m2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s) == 0 || s[0] <= 0 {
			t.Fatalf("%s: bad singular values %v", name, s)
		}
		got := einsum.MustContract("apx,xqc->apqc", a, b)
		if !tensor.AllClose(got, want, 1e-8, 1e-8) {
			t.Errorf("%s: full-rank refactorization not exact, dev %g", name, got.Sub(want).MaxAbs())
		}
	}
}

func TestTruncationMatchesEckartYoung(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	eng := backend.NewDense()
	m := tensor.Rand(rng, 6, 7)
	a, b, _, err := Explicit{}.Factor(eng, "ij->ix|xj", 3, m)
	if err != nil {
		t.Fatal(err)
	}
	approx := einsum.MustContract("ix,xj->ij", a, b)
	// Compare against the optimal rank-3 error computed from the spectrum.
	_, s, _ := eng.TruncSVD(m, 7)
	var opt float64
	for i := 3; i < len(s); i++ {
		opt += s[i] * s[i]
	}
	got := approx.Sub(m).Norm()
	if math.Abs(got-math.Sqrt(opt)) > 1e-9 {
		t.Fatalf("truncation error %g, optimal %g", got, math.Sqrt(opt))
	}
}

func TestImplicitMatchesExplicitOnLowRank(t *testing.T) {
	// Build a 5-site network whose contraction has exact rank 3 across the
	// split, then check implicit and explicit agree to high precision
	// (the paper's Figure 10 claim: implicit rSVD adds no error).
	rng := rand.New(rand.NewSource(3))
	eng := backend.NewDense()
	left := tensor.Rand(rng, 5, 4, 3)  // [a p x0]
	right := tensor.Rand(rng, 3, 4, 5) // [x0 q c]
	// network contracting to left x right through bond 3
	full := einsum.MustContract("apk,kqc->apqc", left, right)
	aE, bE, _, err := Explicit{}.Factor(eng, "apqc->apx|xqc", 3, full)
	if err != nil {
		t.Fatal(err)
	}
	aI, bI, _, err := ImplicitRand{NIter: 3, Oversample: 3, Rng: rng}.Factor(eng, "apqc->apx|xqc", 3, full)
	if err != nil {
		t.Fatal(err)
	}
	gotE := einsum.MustContract("apx,xqc->apqc", aE, bE)
	gotI := einsum.MustContract("apx,xqc->apqc", aI, bI)
	if !tensor.AllClose(gotE, full, 1e-9, 1e-9) {
		t.Fatal("explicit lost accuracy on exactly-rank-3 tensor")
	}
	if !tensor.AllClose(gotI, full, 1e-7, 1e-7) {
		t.Fatal("implicit rSVD lost accuracy on exactly-rank-3 tensor")
	}
}

func TestSigmaModes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eng := backend.NewDense()
	m := tensor.Rand(rng, 4, 4)
	for _, mode := range []SigmaMode{SigmaRight, SigmaLeft, SigmaBoth} {
		a, b, _, err := Explicit{Mode: mode}.Factor(eng, "ij->ix|xj", 4, m)
		if err != nil {
			t.Fatal(err)
		}
		got := einsum.MustContract("ix,xj->ij", a, b)
		if !tensor.AllClose(got, m, 1e-10, 1e-10) {
			t.Fatalf("mode %d does not reconstruct", mode)
		}
	}
	// SigmaRight leaves the first factor an isometry.
	a, _, _, _ := Explicit{Mode: SigmaRight}.Factor(eng, "ij->ix|xj", 4, m)
	am := a.Reshape(4, 4)
	if !tensor.AllClose(tensor.MatMul(am.Conj().Transpose(1, 0), am), tensor.Eye(4), 0, 1e-10) {
		t.Fatal("SigmaRight first factor should be an isometry")
	}
	// SigmaBoth balances the factor norms.
	ab, bb, _, _ := Explicit{Mode: SigmaBoth}.Factor(eng, "ij->ix|xj", 4, m)
	if r := ab.Norm() / bb.Norm(); r < 0.5 || r > 2 {
		t.Fatalf("SigmaBoth factors unbalanced: ratio %g", r)
	}
}

func TestNewIndexPlacementWithinOutputs(t *testing.T) {
	// The new bond may sit anywhere in each output subscript.
	rng := rand.New(rand.NewSource(5))
	eng := backend.NewDense()
	m := tensor.Rand(rng, 3, 4, 5)
	a, b, _, err := Explicit{}.Factor(eng, "ijk->xi|jxk", 20, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dim(1) != 3 || b.Dim(0) != 4 || b.Dim(2) != 5 {
		t.Fatalf("output shapes %v %v", a.Shape(), b.Shape())
	}
	got := einsum.MustContract("xi,jxk->ijk", a, b)
	if !tensor.AllClose(got, m, 1e-9, 1e-9) {
		t.Fatal("placement permutation broke reconstruction")
	}
}

func TestSummedOutLetters(t *testing.T) {
	// Letter d appears only in inputs: summed away before the split.
	rng := rand.New(rand.NewSource(6))
	eng := backend.NewDense()
	m := tensor.Rand(rng, 3, 4, 2)
	a, b, _, err := Explicit{}.Factor(eng, "ijd->ix|xj", 10, m)
	if err != nil {
		t.Fatal(err)
	}
	want := einsum.MustContract("ijd->ij", m)
	got := einsum.MustContract("ix,xj->ij", a, b)
	if !tensor.AllClose(got, want, 1e-9, 1e-9) {
		t.Fatal("summed letters mishandled")
	}
}

func TestDistEngineAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dense := backend.NewDense()
	de := backend.NewDist(dist.NewGrid(dist.Stampede2(8)), true)
	m1 := tensor.Rand(rng, 2, 3, 4)
	m2 := tensor.Rand(rng, 4, 3, 2)
	want := einsum.MustContract("apb,bqc->apqc", m1, m2)
	for _, eng := range []backend.Engine{dense, de} {
		a, b, _, err := Explicit{}.Factor(eng, "apb,bqc->apx|xqc", 6, m1, m2)
		if err != nil {
			t.Fatal(err)
		}
		got := einsum.MustContract("apx,xqc->apqc", a, b)
		if !tensor.AllClose(got, want, 1e-8, 1e-8) {
			t.Errorf("engine %s: reconstruction failed", eng.Name())
		}
	}
}

func TestErrorCases(t *testing.T) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(8))
	m := tensor.Rand(rng, 2, 2)
	cases := []string{
		"ij->ixj",     // no split
		"ij->ix|yj",   // no shared new letter
		"ij->ijx|xij", // output letters shared beyond the new one... (i,j shared and in inputs)
		"ij->ix|xk",   // unknown letter k
		"ij->ii|ij",   // malformed
		"ij",          // no arrow
	}
	for _, spec := range cases {
		if _, _, _, err := (Explicit{}).Factor(eng, spec, 2, m); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
	if _, _, _, err := (ImplicitRand{}).Factor(eng, "ij->ix|xj", 2, m); err == nil {
		t.Error("ImplicitRand without Rng should fail")
	}
}

func TestSigmaNoneFactorsAreIsometries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eng := backend.NewDense()
	m := tensor.Rand(rng, 5, 5)
	a, b, s, err := Explicit{Mode: SigmaNone}.Factor(eng, "ij->ix|xj", 5, m)
	if err != nil {
		t.Fatal(err)
	}
	am := a.Reshape(5, 5)
	if !tensor.AllClose(tensor.MatMul(am.Conj().Transpose(1, 0), am), tensor.Eye(5), 0, 1e-10) {
		t.Fatal("U factor not an isometry under SigmaNone")
	}
	bm := b.Reshape(5, 5)
	if !tensor.AllClose(tensor.MatMul(bm, bm.Conj().Transpose(1, 0)), tensor.Eye(5), 0, 1e-10) {
		t.Fatal("V* factor not an isometry under SigmaNone")
	}
	// Reconstruct with sigma inserted manually.
	sd := tensor.New(5, 5)
	for i := range s {
		sd.Set(complex(s[i], 0), i, i)
	}
	back := tensor.MatMul(tensor.MatMul(am, sd), bm)
	if !tensor.AllClose(back, m, 1e-10, 1e-10) {
		t.Fatal("U diag(s) V* != M")
	}
}

// TestCompiledSplitSpecCache checks the split-spec memo: one compiled
// form per (spec, operand shapes), carrying the derived einsum specs; a parse error is returned every time and never cached; and
// einsum.ResetPlanCache, which the benchmark calls before every pass,
// returns it to a cold start together with the plans. Eight goroutines
// look the same signatures up at once for the race detector.
func TestCompiledSplitSpecCache(t *testing.T) {
	const spec = "gbcC,buUe,ucdrp,UCDRp->gdDn|nerR"
	small := [][]int{{4, 4, 2, 2}, {4, 2, 2, 4}, {2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}}
	large := [][]int{{8, 8, 3, 3}, {8, 3, 3, 8}, {3, 3, 3, 3, 2}, {3, 3, 3, 3, 2}}
	einsum.ResetPlanCache()
	p, err := compiled(spec, small)
	if err != nil {
		t.Fatal(err)
	}
	implicit, _ := p.decompose([]int{0, 1, 2, 3}, 8, 1)
	if p.fullSpec != "gbcC,buUe,ucdrp,UCDRp->gdDerR" ||
		implicit.applySpec != "gbcC,buUe,ucdrp,UCDRp,erRz->gdDz" ||
		implicit.adjSpec != "gdDz,gbcC,buUe,ucdrp,UCDRp->erRz" {
		t.Fatalf("derived specs %q, %q, %q", p.fullSpec, implicit.applySpec, implicit.adjSpec)
	}
	if p.rowSize != 16 || p.colSize != 16 {
		t.Fatalf("matricization %d x %d, want 16 x 16", p.rowSize, p.colSize)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if q, err := compiled(spec, small); err != nil || q != p {
					t.Errorf("lookup %d returned %p, %v; want the cached %p", i, q, err, p)
					return
				}
				if q, err := compiled(spec, large); err != nil || q == p || q.rowSize != 72 {
					t.Errorf("other shapes returned %p (rowSize %d), %v", q, q.rowSize, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if _, err := compiled("ab,bc->ac", [][]int{{2, 2}, {2, 2}}); err == nil {
			t.Fatal("spec without a split output compiled")
		}
	}
	einsum.ResetPlanCache()
	if q, _ := compiled(spec, small); q == p {
		t.Fatal("ResetPlanCache left the split-spec memo warm")
	}
}
