package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

func isUnitary(g *tensor.Dense, tol float64) bool {
	n := g.Dim(0)
	p := tensor.MatMul(g.Conj().Transpose(1, 0), g)
	return tensor.AllClose(p, tensor.Eye(n), 0, tol)
}

func TestStandardGatesUnitary(t *testing.T) {
	gates := map[string]*tensor.Dense{
		"I": I(), "X": X(), "Y": Y(), "Z": Z(), "H": H(), "S": S(), "T": T(),
		"SqrtX": SqrtX(), "SqrtY": SqrtY(), "SqrtW": SqrtW(),
		"Rx": Rx(0.3), "Ry": Ry(1.1), "Rz": Rz(-0.7),
		"CX": CX(), "CZ": CZ(), "SWAP": SWAP(), "ISwap": ISwap(),
	}
	for name, g := range gates {
		if !isUnitary(g, 1e-12) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestPauliAlgebra(t *testing.T) {
	// X^2 = Y^2 = Z^2 = I, XY = iZ
	for _, g := range []*tensor.Dense{X(), Y(), Z()} {
		if !tensor.AllClose(tensor.MatMul(g, g), tensor.Eye(2), 0, 1e-14) {
			t.Fatal("Pauli square is not identity")
		}
	}
	xy := tensor.MatMul(X(), Y())
	if !tensor.AllClose(xy, Z().Scale(1i), 0, 1e-14) {
		t.Fatal("XY != iZ")
	}
}

func TestSqrtGatesSquareToTarget(t *testing.T) {
	if !tensor.AllClose(tensor.MatMul(SqrtX(), SqrtX()), X(), 0, 1e-12) {
		t.Fatal("SqrtX^2 != X")
	}
	if !tensor.AllClose(tensor.MatMul(SqrtY(), SqrtY()), Y(), 0, 1e-12) {
		t.Fatal("SqrtY^2 != Y")
	}
	w := X().Add(Y()).Scale(complex(1/math.Sqrt2, 0))
	if !tensor.AllClose(tensor.MatMul(SqrtW(), SqrtW()), w, 0, 1e-12) {
		t.Fatal("SqrtW^2 != W")
	}
}

func TestRotationComposition(t *testing.T) {
	lhs := tensor.MatMul(Ry(0.4), Ry(0.6))
	rhs := Ry(1.0)
	if !tensor.AllClose(lhs, rhs, 0, 1e-13) {
		t.Fatal("Ry(a)Ry(b) != Ry(a+b)")
	}
	if !tensor.AllClose(Ry(0), tensor.Eye(2), 0, 1e-14) {
		t.Fatal("Ry(0) != I")
	}
}

func TestCXTruthTable(t *testing.T) {
	cx := CX()
	// |10> -> |11>, |11> -> |10>, |00>,|01> fixed.
	wantCols := [][]int{{0}, {1}, {3}, {2}}
	for in, outs := range wantCols {
		for out := 0; out < 4; out++ {
			want := complex128(0)
			if out == outs[0] {
				want = 1
			}
			if cx.At(out, in) != want {
				t.Fatalf("CX[%d,%d] = %v, want %v", out, in, cx.At(out, in), want)
			}
		}
	}
}

func TestISwapAction(t *testing.T) {
	g := ISwap()
	if g.At(1, 2) != 1i || g.At(2, 1) != 1i {
		t.Fatal("ISwap should map |01>,|10> with factor i")
	}
	if g.At(0, 0) != 1 || g.At(3, 3) != 1 {
		t.Fatal("ISwap should fix |00>, |11>")
	}
}

func TestRandomUnitaryIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{2, 4, 7} {
		u := RandomUnitary(rng, d)
		if !isUnitary(u, 1e-11) {
			t.Fatalf("RandomUnitary(%d) not unitary", d)
		}
	}
}

func TestGate4RoundTrip(t *testing.T) {
	g := Gate4(CX())
	if !tensor.SameShape(g.Shape(), []int{2, 2, 2, 2}) {
		t.Fatalf("Gate4 shape %v", g.Shape())
	}
	// g[i1,i2,j1,j2] = CX[(i1 i2),(j1 j2)]
	if g.At(1, 1, 1, 0) != 1 {
		t.Fatal("Gate4 index convention broken")
	}
	if !tensor.SameShape(Gate4(g).Shape(), []int{2, 2, 2, 2}) {
		t.Fatal("Gate4 should pass rank-4 through")
	}
}

func TestObservableArithmetic(t *testing.T) {
	o := ObservableZZ(3, 4).Add(ObservableX(1).Scale(0.2))
	if len(o.Terms) != 2 {
		t.Fatalf("terms = %d", len(o.Terms))
	}
	if o.Terms[1].Coef != 0.2 {
		t.Fatalf("scaled coef = %v", o.Terms[1].Coef)
	}
	if o.MaxSite() != 4 {
		t.Fatalf("MaxSite = %d", o.MaxSite())
	}
	if NewObservable().MaxSite() != -1 {
		t.Fatal("empty MaxSite should be -1")
	}
}

func TestObservableAddDoesNotMutate(t *testing.T) {
	a := ObservableX(0)
	b := ObservableZ(1)
	c := a.Add(b)
	c.AddTerm(1, Y(), 2)
	if len(a.Terms) != 1 || len(b.Terms) != 1 {
		t.Fatal("Add mutated an input observable")
	}
}

func TestAddTermValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewObservable().AddTerm(1, tensor.Eye(4), 0) },       // wrong one-site shape
		func() { NewObservable().AddTerm(1, tensor.Eye(2), 0, 1) },    // wrong two-site shape
		func() { NewObservable().AddTerm(1, tensor.Eye(4), 2, 2) },    // identical sites
		func() { NewObservable().AddTerm(1, tensor.Eye(8), 0, 1, 2) }, // 3 sites
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

func TestTrotterGatesUnitaryForRealTime(t *testing.T) {
	o := TransverseFieldIsing(2, 2, -1, -3.5)
	gates := o.TrotterGates(complex(0, -0.1))
	if len(gates) != 4+4 {
		t.Fatalf("gate count = %d, want 8", len(gates))
	}
	for _, g := range gates {
		if !isUnitary(g.Gate, 1e-11) {
			t.Fatal("real-time Trotter gate not unitary")
		}
	}
	// Two-site gates come before one-site gates.
	if len(gates[0].Sites) != 2 || len(gates[len(gates)-1].Sites) != 1 {
		t.Fatal("Trotter gate ordering wrong")
	}
}

func TestTrotterGateMatchesScalarExp(t *testing.T) {
	o := NewObservable().AddTerm(0.7, Z(), 0)
	g := o.TrotterGates(-0.5)[0].Gate
	want := cmplx.Exp(complex(-0.5*0.7, 0))
	if cmplx.Abs(g.At(0, 0)-want) > 1e-13 {
		t.Fatalf("gate[0,0] = %v, want %v", g.At(0, 0), want)
	}
}

func TestTFITermCount(t *testing.T) {
	o := TransverseFieldIsing(3, 3, -1, -3.5)
	// 12 bonds + 9 fields
	if len(o.Terms) != 21 {
		t.Fatalf("TFI 3x3 terms = %d, want 21", len(o.Terms))
	}
}

func TestJ1J2TermCount(t *testing.T) {
	o := J1J2Heisenberg(4, 4, PaperJ1J2Params())
	// J1 bonds: 2*4*3 = 24, each contributing XX,YY,ZZ -> 72
	// J2 bonds: 2*3*3 = 18 -> 54
	// fields: 16 sites * 3 axes = 48
	if len(o.Terms) != 72+54+48 {
		t.Fatalf("J1J2 4x4 terms = %d, want %d", len(o.Terms), 72+54+48)
	}
}

func TestJ1J2NoDiagonalWhenJ2Zero(t *testing.T) {
	p := PaperJ1J2Params()
	p.J2x, p.J2y, p.J2z = 0, 0, 0
	o := J1J2Heisenberg(3, 3, p)
	site := func(r, c int) int { return r*3 + c }
	for _, term := range o.Terms {
		if len(term.Sites) == 2 {
			s1, s2 := term.Sites[0], term.Sites[1]
			r1, c1 := s1/3, s1%3
			r2, c2 := s2/3, s2%3
			if abs(r1-r2)+abs(c1-c2) != 1 {
				t.Fatalf("non-adjacent term %d-%d with J2=0", s1, s2)
			}
		}
	}
	_ = site
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSecondOrderTrotterGateCount(t *testing.T) {
	o := TransverseFieldIsing(2, 2, -1, -3.5)
	g1 := o.TrotterGates(-0.1)
	g2 := o.TrotterGatesSecondOrder(-0.1)
	if len(g2) != 2*len(g1) {
		t.Fatalf("second order gates = %d, want %d", len(g2), 2*len(g1))
	}
	// Palindromic structure.
	for i := range g2 {
		j := len(g2) - 1 - i
		if len(g2[i].Sites) != len(g2[j].Sites) {
			t.Fatal("second-order sequence is not symmetric")
		}
	}
}

func TestSecondOrderTrotterIsMoreAccurate(t *testing.T) {
	// Compare exp(-tau H) applied exactly (dense expm of the full 16x16
	// Hamiltonian on 2x2) against the two Trotterizations.
	o := TransverseFieldIsing(2, 2, -1, -3.5)
	n := 4
	dim := 1 << n
	// Build dense H.
	h := tensor.New(dim, dim)
	for col := 0; col < dim; col++ {
		x := make([]complex128, dim)
		x[col] = 1
		// apply each term via Kron-free brute force using TrotterGates at
		// scale 0 is useless; instead assemble from terms directly.
		for _, term := range o.Terms {
			y := applyTermDense(term, x, n)
			for rw := 0; rw < dim; rw++ {
				h.Set(h.At(rw, col)+y[rw], rw, col)
			}
		}
	}
	applySeq := func(gates []TrotterGate) *tensor.Dense {
		m := tensor.Eye(dim)
		for _, g := range gates {
			gd := gateDense(g, n)
			m = tensor.MatMul(gd, m)
		}
		return m
	}
	errAt := func(tau float64) (float64, float64) {
		exact := linalg.ExpmHermitian(h, complex(-tau, 0))
		e1 := applySeq(o.TrotterGates(complex(-tau, 0))).Sub(exact).Norm()
		e2 := applySeq(o.TrotterGatesSecondOrder(complex(-tau, 0))).Sub(exact).Norm()
		return e1, e2
	}
	e1, e2 := errAt(0.05)
	if e2 >= e1 {
		t.Fatalf("second order error %g should beat first order %g", e2, e1)
	}
	// Order check: halving tau reduces the per-sweep error by ~2^2 for
	// first order and ~2^3 for second order.
	h1, h2 := errAt(0.025)
	if r := e1 / h1; r < 2.5 || r > 6 {
		t.Fatalf("first-order tau-scaling ratio %g, want ~4", r)
	}
	if r := e2 / h2; r < 5 || r > 12 {
		t.Fatalf("second-order tau-scaling ratio %g, want ~8", r)
	}
}

// applyTermDense applies coef*op on the term's sites to a dense vector.
func applyTermDense(term Term, x []complex128, n int) []complex128 {
	dim := len(x)
	y := make([]complex128, dim)
	switch len(term.Sites) {
	case 1:
		q := term.Sites[0]
		stride := 1 << (n - 1 - q)
		op := term.Op
		for i := 0; i < dim; i++ {
			b := (i / stride) & 1
			for a := 0; a < 2; a++ {
				j := i&^(stride) | a*stride
				y[i] += term.Coef * op.At(b, a) * x[j]
			}
		}
	case 2:
		q1, q2 := term.Sites[0], term.Sites[1]
		s1, s2 := 1<<(n-1-q1), 1<<(n-1-q2)
		op := term.Op.Reshape(2, 2, 2, 2)
		for i := 0; i < dim; i++ {
			b1, b2 := (i/s1)&1, (i/s2)&1
			for a1 := 0; a1 < 2; a1++ {
				for a2 := 0; a2 < 2; a2++ {
					j := i&^s1&^s2 | a1*s1 | a2*s2
					y[i] += term.Coef * op.At(b1, b2, a1, a2) * x[j]
				}
			}
		}
	}
	return y
}

// gateDense expands a 1- or 2-site gate to the full 2^n matrix.
func gateDense(g TrotterGate, n int) *tensor.Dense {
	dim := 1 << n
	out := tensor.New(dim, dim)
	for col := 0; col < dim; col++ {
		x := make([]complex128, dim)
		x[col] = 1
		y := applyTermDense(Term{Coef: 1, Sites: g.Sites, Op: g.Gate}, x, n)
		for rw := 0; rw < dim; rw++ {
			out.Set(y[rw], rw, col)
		}
	}
	return out
}

// TestOperatorSchmidt checks the product form the PEPS expectation
// evaluates two-site terms in: sum_k A_k (x) B_k reproduces the operator
// to rounding, with the operator-Schmidt rank each model relies on.
func TestOperatorSchmidt(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hermitian := tensor.Rand(rng, 4, 4)
	hermitian = hermitian.Add(hermitian.Conj().Transpose(1, 0))
	u1 := J1J2HeisenbergU1(1, 2, PaperJ1J2ParamsU1()).Terms[0].Op // jxy (XX + YY) + jz ZZ
	for _, tc := range []struct {
		name string
		op   *tensor.Dense
		k    int // expected rank; -1 = any
	}{
		{"XX", tensor.Kron(X(), X()), 1},
		{"YY", tensor.Kron(Y(), Y()), 1},
		{"ZZ", tensor.Kron(Z(), Z()), 1},
		{"SWAP", SWAP(), 4},
		{"U1-pair", u1, 3},
		{"hermitian", hermitian, -1},
		{"non-hermitian", tensor.Rand(rng, 4, 4), -1},
		{"rank-4-tensor", Gate4(CX()), 2},
		{"zero", tensor.New(4, 4), 0},
	} {
		as, bs := OperatorSchmidt(tc.op)
		if len(as) != len(bs) || len(as) > 4 {
			t.Fatalf("%s: %d left and %d right factors", tc.name, len(as), len(bs))
		}
		if tc.k >= 0 && len(as) != tc.k {
			t.Errorf("%s: operator-Schmidt rank %d, want %d", tc.name, len(as), tc.k)
		}
		sum := tensor.New(4, 4)
		for k := range as {
			sum = sum.Add(tensor.Kron(as[k], bs[k]))
		}
		if d := sum.Sub(tc.op.Reshape(4, 4)).Norm(); d > 1e-14*(1+tc.op.Norm()) {
			t.Errorf("%s: ||sum_k A_k (x) B_k - op|| = %g", tc.name, d)
		}
	}
}
