package einsumsvd

import (
	"math"
	"math/rand"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

func symEach(legs []tensor.Leg, f func(sec []int)) {
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

func randSymOp(rng *rand.Rand, mod, total int, legs []tensor.Leg) *tensor.Sym {
	s := tensor.NewSym(mod, total, legs)
	symEach(legs, func(sec []int) {
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

func symTensorsClose(t *testing.T, got, want *tensor.Dense, tol float64) {
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

// TestSymFactorReconstructs checks the split contract A·B (with sigma
// absorbed per the mode) against the full network contraction, for every
// sigma placement.
func TestSymFactorReconstructs(t *testing.T) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(41))
	q := tensor.Leg{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}}
	x := randSymOp(rng, 0, 0, []tensor.Leg{q, q.Dual(), q})
	y := randSymOp(rng, 0, 1, []tensor.Leg{q.Dual(), q, q.Dual()})
	full := eng.SymEinsum("abk,kcd->abcd", x, y).ToDense()

	for _, mode := range []SigmaMode{SigmaRight, SigmaLeft, SigmaBoth} {
		a, b, s, _, err := SymFactor(eng, mode, "abk,kcd->abn|ncd", 0, x, y)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if len(s) == 0 {
			t.Fatalf("mode %d: no singular values", mode)
		}
		got := eng.SymEinsum("abn,ncd->abcd", a, b).ToDense()
		symTensorsClose(t, got, full, 1e-10)
	}
}

// TestSymFactorMatchesDenseFactor embeds the operands and compares the
// kept spectrum with the dense explicit strategy at the same truncation
// rank.
func TestSymFactorMatchesDenseFactor(t *testing.T) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(42))
	q := tensor.Leg{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}}
	x := randSymOp(rng, 2, 0, []tensor.Leg{q, q.Dual(), q})
	y := randSymOp(rng, 2, 1, []tensor.Leg{q.Dual(), q, q.Dual()})
	const rank = 3
	_, _, ss, _, err := SymFactor(eng, SigmaBoth, "abk,kcd->abn|ncd", rank, x, y)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ds := MustFactor(Explicit{}, eng, "abk,kcd->abn|ncd", rank, x.ToDense(), y.ToDense())
	if len(ss) != rank || len(ds) != rank {
		t.Fatalf("kept %d sym and %d dense values, want %d", len(ss), len(ds), rank)
	}
	// Same multiset of kept values; the orders differ (dense descending,
	// sym in bond-canonical order).
	sortedSym := append([]float64{}, ss...)
	sortedDense := append([]float64{}, ds...)
	for _, s := range [][]float64{sortedSym, sortedDense} {
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[j] > s[i] {
					s[i], s[j] = s[j], s[i]
				}
			}
		}
	}
	for i := range sortedSym {
		if math.Abs(sortedSym[i]-sortedDense[i]) > 1e-10 {
			t.Fatalf("kept value %d: sym %g dense %g", i, sortedSym[i], sortedDense[i])
		}
	}
}

func TestSymFactorBadSpec(t *testing.T) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(43))
	q := tensor.Leg{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}}
	x := randSymOp(rng, 0, 0, []tensor.Leg{q, q.Dual()})
	if _, _, _, _, err := SymFactor(eng, SigmaBoth, "ab->a|b|c", 0, x); err == nil {
		t.Fatal("malformed spec must error, not panic")
	}
}
