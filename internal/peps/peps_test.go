package peps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/tensor"
)

var eng = backend.NewDense()

func explicit() einsumsvd.Strategy { return einsumsvd.Explicit{} }
func implicit(seed int64) einsumsvd.Strategy {
	return einsumsvd.ImplicitRand{NIter: 2, Oversample: 4, Rng: rand.New(rand.NewSource(seed))}
}

// allBits enumerates all bit strings of length n.
func allBits(n int) [][]int {
	out := make([][]int, 1<<n)
	for i := range out {
		bits := make([]int, n)
		for j := 0; j < n; j++ {
			bits[j] = (i >> (n - 1 - j)) & 1
		}
		out[i] = bits
	}
	return out
}

// compareWithStateVector applies the same gate list to a PEPS (exactly)
// and a state vector and compares every amplitude.
func compareWithStateVector(t *testing.T, rows, cols int, gates []quantum.TrotterGate, tol float64) {
	t.Helper()
	n := rows * cols
	ps := ComputationalZeros(eng, rows, cols)
	sv := statevector.Zeros(n)
	opts := UpdateOptions{Rank: 0, Method: UpdateQR} // exact
	for _, g := range gates {
		ps.ApplyGate(g, opts)
		sv.ApplyGate(g)
	}
	opt := BMPS{M: 1 << 16, Strategy: explicit()} // effectively exact
	for _, bits := range allBits(n) {
		want := sv.Amplitude(bits)
		got := ps.Amplitude(bits, opt)
		if cmplx.Abs(got-want) > tol {
			t.Fatalf("amplitude(%v) = %v, want %v", bits, got, want)
		}
	}
}

func TestComputationalZeros(t *testing.T) {
	p := ComputationalZeros(eng, 2, 3)
	opt := Exact{}
	zeros := []int{0, 0, 0, 0, 0, 0}
	if got := p.Amplitude(zeros, opt); cmplx.Abs(got-1) > 1e-14 {
		t.Fatalf("amplitude(0..0) = %v", got)
	}
	one := []int{0, 1, 0, 0, 0, 0}
	if got := p.Amplitude(one, opt); cmplx.Abs(got) > 1e-14 {
		t.Fatalf("amplitude with a 1 should vanish: %v", got)
	}
}

func TestComputationalBasis(t *testing.T) {
	bits := []int{1, 0, 1, 1}
	p := ComputationalBasis(eng, 2, 2, bits)
	if got := p.Amplitude(bits, Exact{}); cmplx.Abs(got-1) > 1e-14 {
		t.Fatalf("amplitude = %v", got)
	}
}

func TestOneSiteGateMatchesStateVector(t *testing.T) {
	gates := []quantum.TrotterGate{
		{Sites: []int{0}, Gate: quantum.H()},
		{Sites: []int{3}, Gate: quantum.X()},
		{Sites: []int{2}, Gate: quantum.Ry(0.7)},
	}
	compareWithStateVector(t, 2, 2, gates, 1e-12)
}

func TestBellPairHorizontal(t *testing.T) {
	gates := []quantum.TrotterGate{
		{Sites: []int{0}, Gate: quantum.H()},
		{Sites: []int{0, 1}, Gate: quantum.CX()},
	}
	compareWithStateVector(t, 1, 2, gates, 1e-12)
}

func TestBellPairVertical(t *testing.T) {
	gates := []quantum.TrotterGate{
		{Sites: []int{0}, Gate: quantum.H()},
		{Sites: []int{0, 2}, Gate: quantum.CX()},
	}
	compareWithStateVector(t, 2, 2, gates, 1e-12)
}

func TestReversedGateOrderMatchesStateVector(t *testing.T) {
	// Gate's first qubit on the right / bottom site.
	gates := []quantum.TrotterGate{
		{Sites: []int{1}, Gate: quantum.H()},
		{Sites: []int{1, 0}, Gate: quantum.CX()},
		{Sites: []int{3}, Gate: quantum.H()},
		{Sites: []int{3, 1}, Gate: quantum.CX()},
	}
	compareWithStateVector(t, 2, 2, gates, 1e-12)
}

func TestDistantGateRoutedWithSwaps(t *testing.T) {
	// Control and target at opposite corners of a 2x3 lattice.
	gates := []quantum.TrotterGate{
		{Sites: []int{0}, Gate: quantum.H()},
		{Sites: []int{0, 5}, Gate: quantum.CX()},
		{Sites: []int{4}, Gate: quantum.Ry(1.1)},
		{Sites: []int{5, 0}, Gate: quantum.CZ()},
	}
	compareWithStateVector(t, 2, 3, gates, 1e-11)
}

func TestDiagonalGateRouting(t *testing.T) {
	// Diagonal neighbors, the J2 coupling pattern.
	gates := []quantum.TrotterGate{
		{Sites: []int{0}, Gate: quantum.H()},
		{Sites: []int{1}, Gate: quantum.Ry(0.4)},
		{Sites: []int{0, 3}, Gate: quantum.Gate4(quantum.ISwap())},
		{Sites: []int{1, 2}, Gate: quantum.CX()}, // anti-diagonal
	}
	compareWithStateVector(t, 2, 2, gates, 1e-11)
}

func TestRandomCircuitMatchesStateVector(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var gates []quantum.TrotterGate
	for layer := 0; layer < 3; layer++ {
		for q := 0; q < 6; q++ {
			gates = append(gates, quantum.TrotterGate{Sites: []int{q}, Gate: quantum.RandomUnitary(rng, 2)})
		}
		for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {0, 3}, {1, 4}, {2, 5}} {
			gates = append(gates, quantum.TrotterGate{Sites: []int{pair[0], pair[1]}, Gate: quantum.RandomUnitary(rng, 4)})
		}
	}
	compareWithStateVector(t, 2, 3, gates, 1e-9)
}

func TestDirectAndQRUpdatesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(method UpdateMethod) *PEPS {
		p := ComputationalZeros(eng, 2, 2)
		opts := UpdateOptions{Rank: 0, Method: method}
		p.ApplyOneSite(quantum.H(), 0)
		p.ApplyTwoSite(quantum.RandomUnitary(rand.New(rand.NewSource(1)), 4), 0, 1, opts)
		p.ApplyTwoSite(quantum.RandomUnitary(rand.New(rand.NewSource(2)), 4), 0, 2, opts)
		return p
	}
	a, b := mk(UpdateDirect), mk(UpdateQR)
	opt := BMPS{M: 256, Strategy: explicit()}
	for _, bits := range allBits(4) {
		if cmplx.Abs(a.Amplitude(bits, opt)-b.Amplitude(bits, opt)) > 1e-10 {
			t.Fatalf("direct and QR updates disagree at %v", bits)
		}
	}
	_ = rng
}

func TestTruncationCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := ComputationalZeros(eng, 3, 3)
	opts := UpdateOptions{Rank: 2, Method: UpdateQR}
	for i := 0; i < 9; i++ {
		p.ApplyOneSite(quantum.RandomUnitary(rng, 2), i)
	}
	for layer := 0; layer < 3; layer++ {
		for r := 0; r < 3; r++ {
			for c := 0; c < 2; c++ {
				p.ApplyTwoSite(quantum.RandomUnitary(rng, 4), p.SiteIndex(r, c), p.SiteIndex(r, c+1), opts)
			}
		}
		for r := 0; r < 2; r++ {
			for c := 0; c < 3; c++ {
				p.ApplyTwoSite(quantum.RandomUnitary(rng, 4), p.SiteIndex(r, c), p.SiteIndex(r+1, c), opts)
			}
		}
	}
	if p.MaxBond() > 2 {
		t.Fatalf("bond dimension %d exceeds cap 2", p.MaxBond())
	}
}

func TestContractionAlgorithmsAgreeOnRandomNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := RandomNoPhys(eng, rng, 4, 4, 3)
	want := p.ContractScalar(Exact{})
	for name, opt := range map[string]ContractOption{
		"bmps-large":  BMPS{M: 256, Strategy: explicit()},
		"ibmps-large": BMPS{M: 256, Strategy: implicit(1)},
	} {
		got := p.ContractScalar(opt)
		if cmplx.Abs(got-want) > 1e-8*cmplx.Abs(want) {
			t.Errorf("%s: %v vs exact %v", name, got, want)
		}
	}
}

func TestContractionErrorDecreasesWithM(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := RandomNoPhys(eng, rng, 4, 4, 4)
	want := p.ContractScalar(Exact{})
	errAt := func(m int) float64 {
		return RelativeError(p.ContractScalar(BMPS{M: m, Strategy: explicit()}), want)
	}
	e4, e64 := errAt(4), errAt(64)
	if e64 > 1e-8 {
		t.Fatalf("large-m contraction should be near exact, err %g", e64)
	}
	if e4 < e64 {
		t.Fatalf("error should not increase with m: e4=%g e64=%g", e4, e64)
	}
}

func TestInnerMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Random(eng, rng, 3, 3, 2, 2)
	b := Random(eng, rng, 3, 3, 2, 2)
	want := a.Inner(b, Exact{})
	for name, opt := range map[string]ContractOption{
		"bmps":         BMPS{M: 128, Strategy: explicit()},
		"ibmps":        BMPS{M: 128, Strategy: implicit(2)},
		"2layer-bmps":  TwoLayerBMPS{M: 128, Strategy: explicit()},
		"2layer-ibmps": TwoLayerBMPS{M: 128, Strategy: implicit(3)},
	} {
		got := a.Inner(b, opt)
		if cmplx.Abs(got-want) > 1e-7*cmplx.Abs(want) {
			t.Errorf("%s: inner %v, want %v", name, got, want)
		}
	}
}

func TestNormOfUnitaryCircuitIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := ComputationalZeros(eng, 2, 3)
	opts := UpdateOptions{Rank: 0, Method: UpdateQR}
	for i := 0; i < 6; i++ {
		p.ApplyOneSite(quantum.RandomUnitary(rng, 2), i)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {2, 5}} {
		p.ApplyTwoSite(quantum.RandomUnitary(rng, 4), pair[0], pair[1], opts)
	}
	if n := p.Norm(TwoLayerBMPS{M: 256, Strategy: explicit()}); math.Abs(n-1) > 1e-9 {
		t.Fatalf("norm = %g, want 1", n)
	}
}

func TestLogScaleBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g1 := quantum.RandomUnitary(rng, 4).Scale(2.5) // non-unitary scale
	g2 := quantum.RandomUnitary(rng, 4)
	mk := func(normalize bool) *PEPS {
		p := ComputationalZeros(eng, 2, 2)
		opts := UpdateOptions{Rank: 0, Method: UpdateQR, Normalize: normalize}
		p.ApplyOneSite(quantum.H(), 0)
		p.ApplyTwoSite(g1, 0, 1, opts)
		p.ApplyTwoSite(g2, 1, 3, opts)
		return p
	}
	a := mk(false)
	b := mk(true)
	opt := BMPS{M: 64, Strategy: explicit()}
	for _, bits := range allBits(4) {
		av, bv := a.Amplitude(bits, opt), b.Amplitude(bits, opt)
		if cmplx.Abs(av-bv) > 1e-9*(1+cmplx.Abs(av)) {
			t.Fatalf("normalization changed amplitudes: %v vs %v", av, bv)
		}
	}
	if b.LogScale == 0 {
		t.Fatal("normalized updates should have accumulated LogScale")
	}
}

func TestExpectationMatchesStateVector(t *testing.T) {
	// Evolve a small circuit exactly, then compare <H> against the state
	// vector for the TFI Hamiltonian.
	rng := rand.New(rand.NewSource(14))
	rows, cols := 2, 2
	ps := ComputationalZeros(eng, rows, cols)
	sv := statevector.Zeros(4)
	opts := UpdateOptions{Rank: 0, Method: UpdateQR}
	gates := []quantum.TrotterGate{
		{Sites: []int{0}, Gate: quantum.H()},
		{Sites: []int{0, 1}, Gate: quantum.CX()},
		{Sites: []int{2}, Gate: quantum.Ry(0.9)},
		{Sites: []int{2, 3}, Gate: quantum.RandomUnitary(rng, 4)},
		{Sites: []int{1, 3}, Gate: quantum.Gate4(quantum.ISwap())},
	}
	for _, g := range gates {
		ps.ApplyGate(g, opts)
		sv.ApplyGate(g)
	}
	obs := quantum.TransverseFieldIsing(rows, cols, -1, -3.5)
	want := real(sv.Expectation(obs))
	for _, cached := range []bool{false, true} {
		got := real(ps.Expectation(obs, ExpectationOptions{M: 64, Strategy: explicit(), UseCache: cached}))
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Errorf("cached=%v: expectation %g, want %g", cached, got, want)
		}
	}
}

func TestExpectationWithDiagonalTerms(t *testing.T) {
	// J1-J2 includes diagonal two-site terms, whose sites share no bond.
	rng := rand.New(rand.NewSource(15))
	rows, cols := 2, 2
	ps := ComputationalZeros(eng, rows, cols)
	sv := statevector.Zeros(4)
	opts := UpdateOptions{Rank: 0, Method: UpdateQR}
	for q := 0; q < 4; q++ {
		g := quantum.RandomUnitary(rng, 2)
		ps.ApplyOneSite(g, q)
		sv.ApplyOne(g, q)
	}
	g2 := quantum.RandomUnitary(rng, 4)
	ps.ApplyTwoSite(g2, 0, 1, opts)
	sv.ApplyTwo(g2, 0, 1)
	obs := quantum.J1J2Heisenberg(rows, cols, quantum.PaperJ1J2Params())
	want := real(sv.Expectation(obs))
	for _, cached := range []bool{false, true} {
		got := real(ps.Expectation(obs, ExpectationOptions{M: 64, Strategy: explicit(), UseCache: cached}))
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Errorf("cached=%v: J1J2 expectation %g, want %g", cached, got, want)
		}
	}
}

func TestCachedAndDirectExpectationAgreeOnLargerLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := Random(eng, rng, 3, 4, 2, 2)
	obs := quantum.TransverseFieldIsing(3, 4, -1, -3.5)
	direct := p.Expectation(obs, ExpectationOptions{M: 64, Strategy: explicit()})
	cached := p.Expectation(obs, ExpectationOptions{M: 64, Strategy: explicit(), UseCache: true})
	if cmplx.Abs(direct-cached) > 1e-6*(1+cmplx.Abs(direct)) {
		t.Fatalf("direct %v vs cached %v", direct, cached)
	}
	implicitVal := p.Expectation(obs, ExpectationOptions{M: 64, Strategy: implicit(4), UseCache: true})
	if cmplx.Abs(direct-implicitVal) > 1e-5*(1+cmplx.Abs(direct)) {
		t.Fatalf("explicit %v vs implicit %v", direct, implicitVal)
	}
}

// stateVectorOf reads every amplitude of a small PEPS with an exact
// contraction.
func stateVectorOf(p *PEPS) *statevector.State {
	n := p.Rows * p.Cols
	sv := statevector.Zeros(n)
	for i, bits := range allBits(n) {
		sv.Amp[i] = p.Amplitude(bits, Exact{})
	}
	return sv
}

// TestExpectationProductFormMatchesStateVector checks the product-form
// term evaluation against the state vector at full contraction rank, on
// 3x3 so that every kind of term occurs away from the lattice edge:
// K = 1 Pauli products on adjacent and diagonal sites with all three
// fields, and the K = 3 pair operators of the U(1) Hamiltonian.
func TestExpectationProductFormMatchesStateVector(t *testing.T) {
	p := testState(3, 3, 2)
	sv := stateVectorOf(p)
	norm2 := sv.Norm() * sv.Norm()
	j1j2 := quantum.J1J2Params{J1x: 1, J1y: 0.9, J1z: 1.1, J2x: 0.5, J2y: 0.4, J2z: 0.6, Hx: 0.2, Hy: -0.3, Hz: 0.1}
	for _, tc := range []struct {
		name string
		h    *quantum.Observable
	}{
		{"tfi", quantum.TransverseFieldIsing(3, 3, -1, -3.5)},
		{"j1j2", quantum.J1J2Heisenberg(3, 3, j1j2)},
		{"j1j2-u1", quantum.J1J2HeisenbergU1(3, 3, quantum.PaperJ1J2ParamsU1())},
	} {
		want := sv.Expectation(tc.h) / complex(norm2, 0)
		for _, cached := range []bool{false, true} {
			got := p.Expectation(tc.h, ExpectationOptions{M: 64, Strategy: explicit(), UseCache: cached})
			if d := cmplx.Abs(got - want); d > 1e-10*(1+cmplx.Abs(want)) {
				t.Errorf("%s cached=%v: expectation %v, state vector %v (diff %g)", tc.name, cached, got, want, d)
			}
		}
	}
}

// TestProductTermsKeepBonds pins what the product form is for: applying
// any term of an observable — adjacent, diagonal, distant, entangling —
// leaves every bond of the state at its dimension (the exact direct
// update it replaced returned a 16-dimensional bond from r = 2, and
// routed non-adjacent terms through three of them), and leaves the state
// itself untouched.
func TestProductTermsKeepBonds(t *testing.T) {
	p := testState(3, 3, 2)
	before := p.Clone()
	h := quantum.J1J2Heisenberg(3, 3, quantum.PaperJ1J2Params()).
		AddTerm(1, quantum.CZ(), p.SiteIndex(0, 0), p.SiteIndex(2, 2)).
		AddTerm(1, quantum.SWAP(), p.SiteIndex(1, 1), p.SiteIndex(1, 2)).
		AddTerm(1, quantum.ISwap(), p.SiteIndex(2, 1), p.SiteIndex(0, 1))
	prods := productTerms(h)
	if len(prods) < len(h.Terms)+3+3 { // SWAP and iSWAP have rank 4
		t.Fatalf("%d products for %d terms", len(prods), len(h.Terms))
	}
	for _, pt := range prods {
		phi := p.applyProduct(pt)
		if phi.MaxBond() != p.MaxBond() {
			t.Fatalf("term on sites %v: max bond %d, state has %d", pt.sites, phi.MaxBond(), p.MaxBond())
		}
		for r := 0; r < p.Rows; r++ {
			for c := 0; c < p.Cols; c++ {
				if !tensor.SameShape(phi.Site(r, c).Shape(), p.Site(r, c).Shape()) {
					t.Fatalf("term on sites %v changed the shape of site (%d,%d)", pt.sites, r, c)
				}
				if !equalData(p.Site(r, c), before.Site(r, c)) {
					t.Fatalf("term on sites %v modified the state at (%d,%d)", pt.sites, r, c)
				}
			}
		}
	}
}

func TestFlipVerticalInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := Random(eng, rng, 3, 2, 2, 2)
	f := p.FlipVertical().FlipVertical()
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if !tensor.AllClose(f.Site(r, c), p.Site(r, c), 0, 0) {
				t.Fatal("double flip is not identity")
			}
		}
	}
}

func TestProjectValidation(t *testing.T) {
	p := ComputationalZeros(eng, 2, 2)
	for _, f := range []func(){
		func() { p.Project([]int{0, 0}) },                              // wrong length
		func() { p.Project([]int{0, 0, 0, 2}) },                        // bit out of range
		func() { p.Coords(4) },                                         // site out of range
		func() { p.ApplyTwoSite(quantum.CX(), 1, 1, UpdateOptions{}) }, // same site
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSiteIndexRoundTrip(t *testing.T) {
	p := ComputationalZeros(eng, 3, 4)
	for s := 0; s < 12; s++ {
		r, c := p.Coords(s)
		if p.SiteIndex(r, c) != s {
			t.Fatalf("round trip failed at %d", s)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	p := Random(eng, rng, 2, 2, 2, 2)
	q := p.Clone()
	q.ApplyOneSite(quantum.X(), 0)
	if tensor.AllClose(p.Site(0, 0), q.Site(0, 0), 1e-12, 1e-12) {
		t.Fatal("clone shares site tensors")
	}
}
