package einsumsvd

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// The two split specs of peps.applyTwoLayerRow and their operand shapes
// at boundary bond m, PEPS bond r, physical dimension 2. In the interior
// spec operand 2 is the bra site and operand 3 the ket site.
const (
	firstColumnSpec = "buUe,ucdrp,UCDRp->dDn|nerR"
	interiorSpec    = "gbcC,buUe,ucdrp,UCDRp->gdDn|nerR"
)

func firstColumnShapes(m, r int) [][]int {
	return [][]int{{1, r, r, m}, {r, 1, r, r, 2}, {r, 1, r, r, 2}}
}

func interiorShapes(m, r int) [][]int {
	return [][]int{{m, m, r, r}, {m, r, r, m}, {r, r, r, r, 2}, {r, r, r, r, 2}}
}

// sketchWidth is the width ImplicitRand.Factor derives for rank m with
// the default oversampling of 4.
func sketchWidth(p *splitSpec, m int) int {
	return linalg.SketchWidth(m, 4, p.rowSize, p.colSize)
}

// intermediates walks the planner's order for the contraction and returns,
// for every pairwise step, the set of network operands inside its result;
// members[i] is the set inside input i (0 for the block vector).
func intermediates(inputs []string, dims map[byte]int, output string, members []uint) []uint {
	nodes := append([]uint(nil), members...)
	var out []uint
	for _, step := range einsum.PlanPath(inputs, dims, output) {
		i, j := step[0], step[1]
		nodes[i] |= nodes[j]
		out = append(out, nodes[i])
		nodes = append(nodes[:j], nodes[j+1:]...)
	}
	return out
}

// planIntermediates lists the network-operand sets of every tensor the
// plan's contractions produce at the given block width.
func planIntermediates(p *splitSpec, pl *operatorPlan, width int) []uint {
	dims := map[byte]int{p.blockLetter: width}
	for c, d := range p.dims {
		dims[c] = d
	}
	var out []uint
	for _, h := range pl.hoists {
		inputs, output, _ := strings.Cut(h.spec, "->")
		members := make([]uint, len(h.ops))
		for k, i := range h.ops {
			members[k] = 1 << i
		}
		out = append(out, intermediates(strings.Split(inputs, ","), dims, output, members)...)
	}
	groups := make([]uint, len(pl.groups))
	for g, ms := range pl.groups {
		for _, i := range ms {
			groups[g] |= 1 << i
		}
	}
	inputs, output, _ := strings.Cut(pl.applySpec, "->")
	out = append(out, intermediates(strings.Split(inputs, ","), dims, output, append(append([]uint(nil), groups...), 0))...)
	inputs, output, _ = strings.Cut(pl.adjSpec, "->")
	out = append(out, intermediates(strings.Split(inputs, ","), dims, output, append([]uint{0}, groups...))...)
	return out
}

func identity(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func maxAbs(t *tensor.Dense) float64 {
	m := 0.0
	for _, v := range t.Data() {
		m = max(m, cmplx.Abs(v))
	}
	return m
}

func maxAbsDiff(a, b *tensor.Dense) float64 {
	m := 0.0
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		m = max(m, cmplx.Abs(ad[i]-bd[i]))
	}
	return m
}

func inner(a, b *tensor.Dense) complex128 {
	var s complex128
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		s += cmplx.Conj(ad[i]) * bd[i]
	}
	return s
}

// TestTwoLayerOperatorPlans is Table II's structural claim as a test. Over
// the grid of boundary bonds and PEPS bonds, for the first-column and the
// interior-column factorization of the two-layer row absorption: the
// chosen decomposition costs no more per Factor call than the fully
// implicit one and than forming the whole network (where the guard allows
// it), the hoisted values respect the memory guard, the hoisted operator
// is the implicit operator to rounding and its adjoint is an adjoint; and
// on the interior column no contraction of the plan ever holds the bra
// site merged with the ket site and nothing else — the r^8 double-layer
// tensor the two-layer algorithm exists to avoid.
func TestTwoLayerOperatorPlans(t *testing.T) {
	const bra, ket = 2, 3
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(15))
	for _, spec := range []string{firstColumnSpec, interiorSpec} {
		for _, m := range []int{4, 8, 16, 32} {
			for _, r := range []int{2, 3, 4} {
				shapes := firstColumnShapes(m, r)
				if spec == interiorSpec {
					shapes = interiorShapes(m, r)
				}
				p, err := parse(spec, shapes)
				if err != nil {
					t.Fatal(err)
				}
				width := sketchWidth(p, m)
				ops := make([]*tensor.Dense, len(shapes))
				for i, sh := range shapes {
					ops[i] = tensor.Rand(rng, sh...)
				}
				for _, nIter := range []int{0, 1} {
					name := fmt.Sprintf("%s M=%d r=%d NIter=%d", spec, m, r, nIter)
					chosen := p.operatorPlan(width, nIter)
					implicit, largest := p.decompose(identity(len(shapes)), width, nIter)
					formed, _ := p.decompose(make([]int, len(shapes)), width, nIter) // one group

					if chosen.cmacs > implicit.cmacs {
						t.Errorf("%s: chosen plan models %g cmacs per Factor, the implicit plan %g", name, chosen.cmacs, implicit.cmacs)
					}
					if float64(formed.kept) <= largest && chosen.cmacs > formed.cmacs {
						t.Errorf("%s: chosen plan models %g cmacs per Factor, forming the network %g", name, chosen.cmacs, formed.cmacs)
					}
					if float64(chosen.kept) > largest {
						t.Errorf("%s: hoisted values hold %d elements, the implicit application's largest tensor %g", name, chosen.kept, largest)
					}
					if spec == interiorSpec {
						for _, w := range []int{width, 2} {
							for _, set := range planIntermediates(p, chosen, w) {
								if set == 1<<bra|1<<ket {
									t.Errorf("%s: a contraction at block width %d merges the bra site with the ket site (hoists %v, apply %s)",
										name, w, chosen.hoists, chosen.applySpec)
								}
							}
						}
					}

					hoisted := newNetworkOperator(eng, p, chosen, ops)
					plain := newNetworkOperator(eng, p, implicit, ops)
					x := tensor.Rand(rng, p.colSize, width)
					y := tensor.Rand(rng, p.rowSize, width)
					ax, ay := hoisted.Apply(x), hoisted.ApplyAdjoint(y)
					if d, s := maxAbsDiff(ax, plain.Apply(x)), maxAbs(ax); d > 1e-12*s {
						t.Errorf("%s: hoisted Apply differs from the implicit one by %g (scale %g)", name, d, s)
					}
					if d, s := maxAbsDiff(ay, plain.ApplyAdjoint(y)), maxAbs(ay); d > 1e-12*s {
						t.Errorf("%s: hoisted ApplyAdjoint differs from the implicit one by %g (scale %g)", name, d, s)
					}
					// <Ax, y> = <x, A*y>
					if l, rr := inner(ax, y), inner(x, ay); cmplx.Abs(l-rr) > 1e-10*cmplx.Abs(l) {
						t.Errorf("%s: <Ax,y> = %v but <x,A*y> = %v", name, l, rr)
					}
					hoisted.release()
					plain.release()
				}
			}
		}
	}

	// The benchmark's shapes: 8.0e7 modeled cmacs per Factor before the
	// planner and the decomposition.
	p, err := parse(interiorSpec, interiorShapes(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if pl := p.operatorPlan(20, 1); pl.cmacs > 1.2e7 {
		t.Fatalf("M=16 r=4 width 20: %g modeled cmacs per Factor, want <= 1.2e7", pl.cmacs)
	}
}

// TestImplicitWhereFormingIsDearer: with a wide network and a narrow
// sketch, applying the network is cheaper than forming any part of it,
// and the operator stays fully implicit — Table II's regime.
func TestImplicitWhereFormingIsDearer(t *testing.T) {
	p, err := parse(interiorSpec, interiorShapes(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if pl := p.operatorPlan(2, 0); len(pl.hoists) != 0 {
		t.Fatalf("rank-2 sketch of the M=64 network hoists %v", pl.hoists)
	}
}

// forwardingEngine exposes the Engine methods of its inner engine and none
// of its optional capabilities, like a timing wrapper.
type forwardingEngine struct{ backend.Engine }

// TestHoistedValuesAreRecycledAndEngineIndependent factors the same
// network through the dense engine, which writes the hoisted values into
// the plan's recycled buffers, and through a wrapper without that
// capability: same bits, and the dense engine allocates less by about the
// hoisted values' size per call.
func TestHoistedValuesAreRecycledAndEngineIndependent(t *testing.T) {
	shapes := interiorShapes(16, 4)
	rng := rand.New(rand.NewSource(16))
	ops := make([]*tensor.Dense, len(shapes))
	for i, sh := range shapes {
		ops[i] = tensor.Rand(rng, sh...)
	}
	p, err := compiled(interiorSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	kept := p.operatorPlan(20, 1).kept
	if kept == 0 {
		t.Fatal("the benchmark's interior column is expected to hoist")
	}
	const calls = 10
	run := func(eng backend.Engine) (a, b *tensor.Dense, bytes uint64) {
		var m0, m1 runtime.MemStats
		factor := func() {
			// Random operands have a flat spectrum; the probe would send
			// every call to the exact path, which this test is not about.
			ir := ImplicitRand{NIter: 1, Oversample: 4, Rng: rand.New(rand.NewSource(17)), FallbackTol: -1}
			a, b, _ = MustFactor(ir, eng, interiorSpec, 16, ops...)
		}
		factor() // warm the plan cache and the free lists
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			factor()
		}
		runtime.ReadMemStats(&m1)
		return a, b, m1.TotalAlloc - m0.TotalAlloc
	}
	a1, b1, dense := run(backend.NewDense())
	a2, b2, wrapped := run(forwardingEngine{backend.NewDense()})
	for i, v := range a1.Data() {
		if w := a2.Data()[i]; math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			t.Fatalf("first factor differs behind a forwarding engine at element %d: %v vs %v", i, v, w)
		}
	}
	for i, v := range b1.Data() {
		if w := b2.Data()[i]; v != w {
			t.Fatalf("second factor differs behind a forwarding engine at element %d: %v vs %v", i, v, w)
		}
	}
	hoistedBytes := uint64(calls * kept * 16)
	if dense+hoistedBytes/2 > wrapped {
		t.Fatalf("%d Factor calls allocated %d bytes on the dense engine and %d behind the wrapper; the %d bytes of hoisted values are not being recycled",
			calls, dense, wrapped, hoistedBytes)
	}
}
