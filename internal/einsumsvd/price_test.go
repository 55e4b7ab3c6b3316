package einsumsvd

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/tensor"
)

// pricedShape is one split the benchmark workloads factor: ite_j1j2's
// two-layer row absorb at M=4, r=2 (first and interior column) and
// norm_ibmps's interior column at M=16, r=4.
type pricedShape struct {
	name   string
	spec   string
	shapes [][]int
	rank   int
	sketch bool // what the cost model must pick
}

var pricedShapes = []pricedShape{
	{"ite_j1j2/interior_16x16_k4_w8", interiorSpec, interiorShapes(4, 2), 4, false},
	{"ite_j1j2/first_4x16_k4_w4", firstColumnSpec, firstColumnShapes(4, 2), 4, false},
	{"norm_ibmps/interior_256x256_k16_w20", interiorSpec, interiorShapes(16, 4), 16, true},
}

func pricedOperands(sh pricedShape, seed int64) []*tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*tensor.Dense, len(sh.shapes))
	for i, s := range sh.shapes {
		ops[i] = tensor.Rand(rng, s...)
	}
	return ops
}

func sameFactors(t *testing.T, name string, a, b *tensor.Dense, s []float64, wa, wb *tensor.Dense, ws []float64) {
	t.Helper()
	if !tensor.AllClose(a, wa, 0, 0) || !tensor.AllClose(b, wb, 0, 0) {
		t.Fatalf("%s: factors differ", name)
	}
	if len(s) != len(ws) {
		t.Fatalf("%s: %d singular values, want %d", name, len(s), len(ws))
	}
	for i := range s {
		if s[i] != ws[i] {
			t.Fatalf("%s: singular value %d is %g, want %g", name, i, s[i], ws[i])
		}
	}
}

// TestPricedChoice pins the cost model on the workloads' shapes — the
// two-layer row absorb of ite_j1j2 is formed, norm_ibmps's is sketched —
// and holds each branch to the strategy it runs, bit for bit: the form
// branch to Explicit{Mode}, which leaves the Rng undrawn, the sketch
// branch to ImplicitRand with the same fields and stream.
func TestPricedChoice(t *testing.T) {
	eng := backend.NewDense()
	for _, sh := range pricedShapes {
		ops := pricedOperands(sh, 9)
		p, err := compiled(sh.spec, shapesOf(ops))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.sketchPays(sh.rank, sketchWidth(p, sh.rank), 1); got != sh.sketch {
			form, sketch := p.prices(sh.rank, sketchWidth(p, sh.rank), 1)
			t.Errorf("%s: sketchPays = %v (form %g, sketch %g cmacs), want %v", sh.name, got, form, sketch, sh.sketch)
		}

		// FallbackTol < 0 keeps the sketch branch on the sketch even for
		// the flat spectrum of random operands.
		ir := ImplicitRand{Mode: SigmaBoth, FallbackTol: -1, Rng: rand.New(rand.NewSource(4))}
		pr := Priced{ir}
		pr.Rng = rand.New(rand.NewSource(4))
		a, b, s, err := pr.Factor(eng, sh.spec, sh.rank, ops...)
		if err != nil {
			t.Fatal(err)
		}
		var wa, wb *tensor.Dense
		var ws []float64
		if sh.sketch {
			wa, wb, ws, err = ir.Factor(eng, sh.spec, sh.rank, ops...)
		} else {
			wa, wb, ws, err = Explicit{Mode: SigmaBoth}.Factor(eng, sh.spec, sh.rank, ops...)
			if got, want := pr.Rng.Int63(), rand.New(rand.NewSource(4)).Int63(); got != want {
				t.Errorf("%s: the form branch drew from the Rng", sh.name)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		sameFactors(t, sh.name, a, b, s, wa, wb, ws)
	}
}

// TestTruncationErrorWhereTheMatrixExists: through MustFactorTrunc, the
// priced form branch and ImplicitRand's exact fallback report the
// discarded weight of the matrix they truncate, as Explicit does; a
// sketch, which never holds the matrix, reports TruncUnknown.
func TestTruncationErrorWhereTheMatrixExists(t *testing.T) {
	eng := backend.NewDense()
	const rank = 2
	ops := pricedOperands(pricedShapes[0], 6)
	_, _, _, want := MustFactorTrunc(Explicit{}, eng, interiorSpec, rank, ops...)
	if want <= 0 || want >= 1 {
		t.Fatalf("Explicit truncation error %g, want in (0, 1)", want)
	}
	if _, _, _, got := MustFactorTrunc(Priced{ImplicitRand{Rng: rand.New(rand.NewSource(1))}}, eng, interiorSpec, rank, ops...); got != want {
		t.Errorf("priced form branch reports %g, Explicit %g", got, want)
	}

	// 16 equal directions at rank 2: the probe rejects the sketch and the
	// fallback keeps 2 of 16, discarding sqrt(14/16) of the weight.
	flat := flatSpectrum(16)
	_, _, _, got := MustFactorTrunc(ImplicitRand{Rng: rand.New(rand.NewSource(21))}, eng, "ab->ax|xb", rank, flat)
	if want := math.Sqrt(14.0 / 16); math.Abs(got-want) > 1e-12 {
		t.Errorf("fallback reports %g, want %g", got, want)
	}

	big := pricedShapes[2]
	ops = pricedOperands(big, 6)
	if _, _, _, got := MustFactorTrunc(Priced{ImplicitRand{FallbackTol: -1, Rng: rand.New(rand.NewSource(1))}}, eng, big.spec, big.rank, ops...); got != TruncUnknown {
		t.Errorf("priced sketch branch reports %g, want TruncUnknown", got)
	}
}

// TestPricedConcurrentFirstUse: tasks that meet a split spec for the
// first time at once price it concurrently (the memo lives in the shared
// splitSpec); every fork still gets the serial result. Run under -race.
func TestPricedConcurrentFirstUse(t *testing.T) {
	eng := backend.NewDense()
	const tasks = 4
	for _, sh := range pricedShapes[:2] {
		ops := pricedOperands(sh, 2)
		run := func(st Strategy) *tensor.Dense {
			a, _, _, err := st.Factor(eng, sh.spec, sh.rank, ops...)
			if err != nil {
				t.Error(err)
			}
			return a
		}
		parent := Priced{ImplicitRand{Rng: rand.New(rand.NewSource(8))}}
		want := make([]*tensor.Dense, tasks)
		for i, st := range Fork(parent, tasks) {
			want[i] = run(st)
		}
		einsum.ResetPlanCache() // empties the compiled split specs and their memos
		parent.Rng = rand.New(rand.NewSource(8))
		got := make([]*tensor.Dense, tasks)
		var wg sync.WaitGroup
		for i, st := range Fork(parent, tasks) {
			wg.Add(1)
			go func(i int, st Strategy) {
				defer wg.Done()
				got[i] = run(st)
			}(i, st)
		}
		wg.Wait()
		for i := range got {
			if !tensor.AllClose(got[i], want[i], 0, 0) {
				t.Fatalf("%s: task %d differs from the serial run", sh.name, i)
			}
		}
	}
}

// BenchmarkPricedChoice times both candidates of Priced at the shapes the
// cost model is pinned on, so its choice can be checked against the
// clock: the candidate TestPricedChoice requires should be the faster.
func BenchmarkPricedChoice(b *testing.B) {
	eng := backend.NewDense()
	for _, sh := range pricedShapes {
		ops := pricedOperands(sh, 3)
		p, err := compiled(sh.spec, shapesOf(ops))
		if err != nil {
			b.Fatal(err)
		}
		// Random operands have a flat spectrum, which the probe rejects;
		// the fallback is off so the sketch branch is timed alone.
		ir := ImplicitRand{Rng: rand.New(rand.NewSource(5)), FallbackTol: -1}
		nIter, oversample := ir.params()
		form, sketch := p.prices(sh.rank, sketchWidth(p, sh.rank), nIter)
		b.Run(sh.name+"/form", func(b *testing.B) {
			b.ReportMetric(form, "model_cmacs")
			for i := 0; i < b.N; i++ {
				p.explicit(false, eng, sh.rank, ops, SigmaRight)
			}
		})
		b.Run(sh.name+"/sketch", func(b *testing.B) {
			b.ReportMetric(sketch, "model_cmacs")
			for i := 0; i < b.N; i++ {
				ir.sketch(false, eng, p, sh.rank, nIter, oversample, ops)
			}
		})
	}
}
