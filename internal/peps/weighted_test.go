package peps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
)

func TestScaleAxis(t *testing.T) {
	m := quantum.Gate4(quantum.CX()) // [2,2,2,2]
	w := []float64{2, 3}
	scaled := scaleAxis(m, 1, w, false)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				for l := 0; l < 2; l++ {
					want := m.At(i, j, k, l) * complex(w[j], 0)
					if scaled.At(i, j, k, l) != want {
						t.Fatalf("scaleAxis wrong at %d%d%d%d", i, j, k, l)
					}
				}
			}
		}
	}
	back := scaleAxis(scaled, 1, w, true)
	for i, v := range back.Data() {
		if cmplx.Abs(v-m.Data()[i]) > 1e-14 {
			t.Fatal("invert scaling did not round-trip")
		}
	}
}

func TestWeightedUpdateExactMatchesStateVector(t *testing.T) {
	// With no truncation the weighted update must represent the same
	// state as the plain update (weights just refactor the gauge).
	rows, cols := 2, 3
	rng := rand.New(rand.NewSource(51))
	var gates []quantum.TrotterGate
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < 6; q++ {
			gates = append(gates, quantum.TrotterGate{Sites: []int{q}, Gate: quantum.RandomUnitary(rng, 2)})
		}
		for _, pr := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {2, 5}, {0, 4}} {
			gates = append(gates, quantum.TrotterGate{Sites: []int{pr[0], pr[1]}, Gate: quantum.RandomUnitary(rng, 4)})
		}
	}
	sv := statevector.Zeros(6)
	su := NewSimpleUpdate(ComputationalZeros(eng, rows, cols))
	for _, g := range gates {
		sv.ApplyGate(g)
		su.ApplyGate(g, 0, nil) // rank 0 = exact
	}
	p := su.Absorb()
	opt := BMPS{M: 1 << 16, Strategy: explicit()}
	for _, bits := range allBits(6) {
		want := sv.Amplitude(bits)
		got := p.Amplitude(bits, opt)
		if cmplx.Abs(got-want) > 1e-8 {
			t.Fatalf("amplitude(%v) = %v, want %v", bits, got, want)
		}
	}
}

func TestWeightedUpdateRespectsRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	su := NewSimpleUpdate(ComputationalZeros(eng, 3, 3))
	for layer := 0; layer < 3; layer++ {
		for q := 0; q < 9; q++ {
			su.ApplyGate(quantum.TrotterGate{Sites: []int{q}, Gate: quantum.RandomUnitary(rng, 2)}, 2, nil)
		}
		for r := 0; r < 3; r++ {
			for c := 0; c+1 < 3; c++ {
				su.ApplyGate(quantum.TrotterGate{
					Sites: []int{3*r + c, 3*r + c + 1}, Gate: quantum.RandomUnitary(rng, 4),
				}, 2, nil)
			}
		}
		for r := 0; r+1 < 3; r++ {
			for c := 0; c < 3; c++ {
				su.ApplyGate(quantum.TrotterGate{
					Sites: []int{3*r + c, 3*(r+1) + c}, Gate: quantum.RandomUnitary(rng, 4),
				}, 2, nil)
			}
		}
	}
	if su.State.MaxBond() > 2 {
		t.Fatalf("weighted update exceeded rank cap: %d", su.State.MaxBond())
	}
	// Weight vectors track the bond dimensions.
	for r := 0; r < 3; r++ {
		for c := 0; c+1 < 3; c++ {
			if len(su.HW[r][c]) != su.State.Site(r, c).Dim(3) {
				t.Fatal("HW length out of sync with bond dimension")
			}
		}
	}
}

func TestWeightedITEBeatsPlainOnJ1J2(t *testing.T) {
	// The weighted simple update should track the true ground state at
	// least as well as the plain per-bond update at equal rank (this is
	// its reason to exist). 2x2 J1-J2 at rank 2.
	rows, cols := 2, 2
	obs := quantum.J1J2Heisenberg(rows, cols, quantum.PaperJ1J2Params())
	rng := rand.New(rand.NewSource(53))
	exactE, _ := statevector.GroundState(obs, 4, rng)
	exactPerSite := exactE / 4

	gates := obs.TrotterGates(complex(-0.05, 0))
	const steps = 150
	expOpts := ExpectationOptions{M: 16, Strategy: explicit()}

	plain := ComputationalZeros(eng, rows, cols)
	for s := 0; s < 4; s++ {
		plain.ApplyOneSite(quantum.H(), s)
	}
	upd := UpdateOptions{Rank: 2, Method: UpdateQR, Normalize: true}
	for i := 0; i < steps; i++ {
		plain.ApplyCircuit(gates, upd)
	}
	plainE := plain.EnergyPerSite(obs, expOpts)

	su := NewSimpleUpdate(ComputationalZeros(eng, rows, cols))
	for s := 0; s < 4; s++ {
		su.State.ApplyOneSite(quantum.H(), s)
	}
	for i := 0; i < steps; i++ {
		su.ApplyCircuit(gates, 2, einsumsvd.Explicit{})
	}
	weightedE := su.Absorb().EnergyPerSite(obs, expOpts)

	gapPlain := math.Abs(plainE - exactPerSite)
	gapWeighted := math.Abs(weightedE - exactPerSite)
	t.Logf("exact %.4f plain %.4f (gap %.4f) weighted %.4f (gap %.4f)",
		exactPerSite, plainE, gapPlain, weightedE, gapWeighted)
	if gapWeighted > gapPlain*1.1 {
		t.Fatalf("weighted update (gap %g) should not lose to plain (gap %g)", gapWeighted, gapPlain)
	}
}

func TestRoutedApplicationsSymmetric(t *testing.T) {
	steps := routedApplications(0, 0, 2, 2)
	gates := 0
	for _, s := range steps {
		if s.gate {
			gates++
		}
	}
	if gates != 1 {
		t.Fatalf("routed sequence has %d gate steps, want 1", gates)
	}
	// Swap-in and swap-out counts match.
	if (len(steps)-1)%2 != 0 {
		t.Fatalf("swap steps not paired: %d", len(steps)-1)
	}
}

// TestWithSigmaNoneEveryStrategy: the weighted update keeps the singular
// values as bond weights, so every strategy it is handed must come back
// in SigmaNone with its other fields intact, the priced one included
// (an unknown strategy comes back unchanged).
func TestWithSigmaNoneEveryStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ir := einsumsvd.ImplicitRand{Mode: einsumsvd.SigmaBoth, NIter: 2, Rng: rng}
	for _, st := range []einsumsvd.Strategy{
		nil,
		einsumsvd.Explicit{Mode: einsumsvd.SigmaBoth},
		ir,
		einsumsvd.Priced{ImplicitRand: ir},
	} {
		var mode einsumsvd.SigmaMode
		switch v := withSigmaNone(st).(type) {
		case einsumsvd.Explicit:
			mode = v.Mode
		case einsumsvd.ImplicitRand:
			mode = v.Mode
			if v.NIter != 2 || v.Rng != rng {
				t.Errorf("%T lost its fields: %+v", st, v)
			}
		case einsumsvd.Priced:
			mode = v.Mode
			if v.NIter != 2 || v.Rng != rng {
				t.Errorf("%T lost its fields: %+v", st, v)
			}
		default:
			t.Fatalf("withSigmaNone(%T) = %T", st, v)
		}
		if mode != einsumsvd.SigmaNone {
			t.Errorf("withSigmaNone(%T) has mode %v, want SigmaNone", st, mode)
		}
	}
	if got := (BMPS{Strategy: einsumsvd.Priced{}}).Name(); got != "priced-bmps" {
		t.Errorf("BMPS name with Priced = %q", got)
	}
	if got := (TwoLayerBMPS{Strategy: einsumsvd.Priced{}}).Name(); got != "2layer-priced-bmps" {
		t.Errorf("TwoLayerBMPS name with Priced = %q", got)
	}
}
