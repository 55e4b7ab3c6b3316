package peps

import (
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// conservingGate returns a random two-site unitary that conserves U(1)
// charge: phases on |00> and |11>, a random unitary on span{|01>, |10>}.
// Every kind of state accepts it.
func conservingGate(rng *rand.Rand) *tensor.Dense {
	g := tensor.New(4, 4)
	g.Set(cmplx.Rect(1, rng.Float64()*6), 0, 0)
	g.Set(cmplx.Rect(1, rng.Float64()*6), 3, 3)
	u := quantum.RandomUnitary(rng, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			g.Set(u.At(i, j), 1+i, 1+j)
		}
	}
	return g
}

// updateKind is one row of the kind axis: a 2x3 state with non-trivial
// bonds held the kind's way, an exact two-site gate application on it,
// its lattice transpose, and the dense state it represents.
type updateKind struct {
	name   string
	method string // the peps.update span's method attribute
	build  func(t *testing.T) kindState
}

type kindState interface {
	apply(t *testing.T, g *tensor.Dense, site1, site2 int)
	// truncate applies g capping the bond at rank with the kind's default
	// (explicit) strategy passed through wrap; wrap is nil for kinds that
	// accept only the explicit strategy itself.
	truncate(t *testing.T, g *tensor.Dense, site1, site2, rank int, wrap func(einsumsvd.Strategy) einsumsvd.Strategy)
	transposed(t *testing.T) kindState
	dense() *PEPS
}

type plainState struct {
	p      *PEPS
	method UpdateMethod
}

func (s plainState) apply(_ *testing.T, g *tensor.Dense, site1, site2 int) {
	s.p.ApplyTwoSite(g, site1, site2, UpdateOptions{Method: s.method, Normalize: true})
}
func (s plainState) truncate(_ *testing.T, g *tensor.Dense, site1, site2, rank int, wrap func(einsumsvd.Strategy) einsumsvd.Strategy) {
	s.p.ApplyTwoSite(g, site1, site2, UpdateOptions{Rank: rank, Method: s.method, Normalize: true,
		Strategy: wrap(einsumsvd.Explicit{Mode: einsumsvd.SigmaBoth})})
}
func (s plainState) transposed(*testing.T) kindState {
	return plainState{s.p.TransposeLattice(), s.method}
}
func (s plainState) dense() *PEPS { return s.p }

type weightedState struct{ su *SimpleUpdate }

func (s weightedState) apply(_ *testing.T, g *tensor.Dense, site1, site2 int) {
	s.su.ApplyGate(quantum.TrotterGate{Sites: []int{site1, site2}, Gate: g}, 0, nil)
}
func (s weightedState) truncate(_ *testing.T, g *tensor.Dense, site1, site2, rank int, wrap func(einsumsvd.Strategy) einsumsvd.Strategy) {
	s.su.ApplyGate(quantum.TrotterGate{Sites: []int{site1, site2}, Gate: g}, rank,
		wrap(einsumsvd.Explicit{Mode: einsumsvd.SigmaNone}))
}
func (s weightedState) transposed(*testing.T) kindState {
	su := s.su
	out := NewSimpleUpdate(su.State.TransposeLattice())
	for r := range su.VW {
		for c, w := range su.VW[r] {
			out.HW[c][r] = w
		}
	}
	for r := range su.HW {
		for c, w := range su.HW[r] {
			out.VW[c][r] = w
		}
	}
	return weightedState{out}
}
func (s weightedState) dense() *PEPS { return s.su.Absorb() }

type symState struct {
	p      *SymPEPS
	method UpdateMethod
}

func (s symState) apply(t *testing.T, g *tensor.Dense, site1, site2 int) {
	s.truncate(t, g, site1, site2, 0, nil)
}
func (s symState) truncate(t *testing.T, g *tensor.Dense, site1, site2, rank int, _ func(einsumsvd.Strategy) einsumsvd.Strategy) {
	sg, ok := SymTwoSiteGate(g, s.p.Mod())
	if !ok {
		t.Fatal("gate must conserve charge")
	}
	s.p.ApplyTwoSite(sg, site1, site2, UpdateOptions{Rank: rank, Method: s.method, Normalize: true})
}
func (s symState) transposed(*testing.T) kindState {
	sites := make([][]*tensor.Sym, s.p.Cols)
	for c := range sites {
		sites[c] = make([]*tensor.Sym, s.p.Rows)
		for r := range sites[c] {
			sites[c][r] = s.p.Site(r, c).Transpose(1, 0, 3, 2, 4)
		}
	}
	out := NewSymPEPS(s.p.Engine(), sites)
	out.LogScale = s.p.LogScale
	return symState{out, s.method}
}
func (s symState) dense() *PEPS { return s.p.ToDense() }

// kindBonds lists the seven bonds of the 2x3 lattice, first qubit first.
var kindBonds = [][2]int{{0, 1}, {2, 1}, {3, 4}, {4, 5}, {0, 3}, {4, 1}, {2, 5}}

func updateKinds() []updateKind {
	plain := func(m UpdateMethod) func(*testing.T) kindState {
		return func(*testing.T) kindState {
			return plainState{Random(eng, rand.New(rand.NewSource(61)), 2, 3, 2, 2), m}
		}
	}
	sym := func(m UpdateMethod) func(*testing.T) kindState {
		return func(t *testing.T) kindState {
			// Grow charge-carrying bonds from the Neel product state.
			rng := rand.New(rand.NewSource(63))
			s := symState{SymComputationalBasis(symEngine(t), 0, 2, 3, quantum.NeelBits(2, 3)), m}
			for _, b := range kindBonds {
				s.apply(t, conservingGate(rng), b[0], b[1])
			}
			return s
		}
	}
	return []updateKind{
		{"plain", "qr-svd", plain(UpdateQR)},
		{"plain-direct", "direct", plain(UpdateDirect)},
		{"weighted", "weighted-qr-svd", func(*testing.T) kindState {
			// Truncating updates leave non-unit weights on every bond.
			rng := rand.New(rand.NewSource(62))
			su := NewSimpleUpdate(Random(eng, rng, 2, 3, 2, 2))
			for _, b := range kindBonds {
				su.ApplyGate(quantum.TrotterGate{Sites: b[:], Gate: quantum.RandomUnitary(rng, 4)}, 2, nil)
			}
			return weightedState{su}
		}},
		{"sym", "sym-qr-svd", sym(UpdateQR)},
		{"sym-direct", "sym-direct", sym(UpdateDirect)},
	}
}

// TestUpdateDirectionTimesKind is the property that lets one bond update
// serve both directions of every kind of state: a gate on a vertical bond
// of P is the same gate on the matching horizontal bond of P's lattice
// transpose, in either site order and through SWAP routing. Both sides
// are also held against the state vector, so the two directions cannot
// be wrong the same way.
func TestUpdateDirectionTimesKind(t *testing.T) {
	pairs := []struct {
		name         string
		site1, site2 int // on the 2x3 lattice, row-major
	}{
		{"vertical", 1, 4},
		{"vertical-reversed", 4, 1},
		{"routed-diagonal", 0, 4},
	}
	mirror := func(site int) int { return (site%3)*2 + site/3 } // (r,c) of 2x3 -> (c,r) of 3x2
	for _, kind := range updateKinds() {
		for _, pair := range pairs {
			t.Run(kind.name+"/"+pair.name, func(t *testing.T) {
				g := conservingGate(rand.New(rand.NewSource(64)))
				p := kind.build(t)
				q := p.transposed(t)
				want := stateVectorOf(p.dense())
				want.ApplyTwo(g, pair.site1, pair.site2)

				p.apply(t, g, pair.site1, pair.site2)
				q.apply(t, g, mirror(pair.site1), mirror(pair.site2))
				got := stateVectorOf(p.dense())
				gotT := stateVectorOf(q.dense().TransposeLattice())
				for i := range got.Amp {
					if d := cmplx.Abs(got.Amp[i] - gotT.Amp[i]); d > 1e-12 {
						t.Fatalf("amplitude %d: %v on P, %v on its transpose (diff %.2e)", i, got.Amp[i], gotT.Amp[i], d)
					}
					if d := cmplx.Abs(got.Amp[i] - want.Amp[i]); d > 1e-10 {
						t.Fatalf("amplitude %d: %v, state vector %v (diff %.2e)", i, got.Amp[i], want.Amp[i], d)
					}
				}
			})
		}
	}
}

// spanLog collects completed spans.
type spanLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *spanLog) SpanEnd(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}
func (*spanLog) Flush() error { return nil }

// forwarding passes Factor on and nothing else, like the benchmark
// harness's counting strategy: it hides the inner strategy's optional
// capabilities, the truncation error among them.
type forwarding struct{ einsumsvd.Strategy }

// seriesOf returns the named series of the registry keyed by their labels
// rendered "k=v k=v ".
func seriesOf(name string) map[string]obs.SeriesSnapshot {
	_, series, _ := obs.Snapshot()
	out := map[string]obs.SeriesSnapshot{}
	for _, s := range series {
		if s.Name == name {
			key := ""
			for _, l := range s.Labels {
				key += l.Key + "=" + l.Value + " "
			}
			out[key] = s
		}
	}
	return out
}

// TestEveryKindOfUpdateIsObservable applies one gate per direction to
// each kind of state with tracing and the registry on: each must close a
// peps.update span carrying its method and publish the peps.bond_dim
// series of the bond it updated (the weighted update once did neither).
// Then the truncation error, which travels as a return value from the
// factorization to the bond: a truncating update publishes
// peps.bond_trunc_error for its bond equal to linalg.TruncError of the
// full spectrum — which linalg publishes as svd.trunc_error from the same
// decomposition — even with a boundary-MPS compression run on this
// goroutine just before; and behind a strategy that only forwards Factor
// the series is absent, not stale.
func TestEveryKindOfUpdateIsObservable(t *testing.T) {
	for _, kind := range updateKinds() {
		t.Run(kind.name, func(t *testing.T) {
			p := kind.build(t)
			log := &spanLog{}
			obs.Enable(log)
			t.Cleanup(func() {
				if err := obs.Disable(); err != nil {
					t.Error(err)
				}
				obs.ResetCounters()
			})
			rng := rand.New(rand.NewSource(65))
			p.apply(t, conservingGate(rng), 3, 4) // horizontal bond (1,0)-(1,1)
			p.apply(t, conservingGate(rng), 2, 5) // vertical bond (0,2)-(1,2)

			updates := 0
			for _, e := range log.events {
				if e.Name != "peps.update" {
					continue
				}
				for _, a := range e.Attrs {
					if a.Key == "method" && a.Str == kind.method {
						updates++
					}
				}
			}
			if updates != 2 {
				t.Fatalf("%d peps.update spans with method=%s, want 2", updates, kind.method)
			}
			bonds := seriesOf("peps.bond_dim")
			if bonds["dir=h row=1 col=0 "].Count != 1 || bonds["dir=v row=0 col=2 "].Count != 1 || len(bonds) != 2 {
				t.Fatalf("peps.bond_dim series %v, want one for each updated bond", bonds)
			}
			_, _, hists := obs.Snapshot()
			recorded := false
			for _, h := range hists {
				recorded = recorded || h.Name == "peps.bond_dim_hist" && h.Count == 2
			}
			if !recorded {
				t.Fatal("peps.bond_dim_hist did not record the two updates")
			}

			// A compression on this goroutine leaves its own error in
			// svd.trunc_error; the update after it must report its own.
			compress := func() float64 {
				obs.ResetCounters()
				p.dense().Norm(BMPS{M: 2, Strategy: einsumsvd.Explicit{}})
				return seriesOf("svd.trunc_error")[""].Last
			}
			plain := func(st einsumsvd.Strategy) einsumsvd.Strategy { return st }
			const bond = "dir=h row=1 col=0 "
			stale := compress()
			p.truncate(t, conservingGate(rng), 3, 4, 2, plain)
			got, ok := seriesOf("peps.bond_trunc_error")[bond]
			want := seriesOf("svd.trunc_error")[""].Last
			if !ok || got.Count != 1 {
				t.Fatalf("peps.bond_trunc_error{%s} not published once: %+v", bond, seriesOf("peps.bond_trunc_error"))
			}
			if want < 1e-4 || want == stale {
				t.Fatalf("reference error %g (compression left %g): the update must truncate for real", want, stale)
			}
			if d := got.Last - want; d > 1e-7 || d < -1e-7 {
				t.Fatalf("peps.bond_trunc_error = %.10g, linalg.TruncError of the spectrum %.10g (compression left %.10g)", got.Last, want, stale)
			}

			if kind.name == "sym" || kind.name == "sym-direct" {
				return // block-sparse updates take the explicit strategy only
			}
			compress()
			p.truncate(t, conservingGate(rng), 3, 4, 2, func(st einsumsvd.Strategy) einsumsvd.Strategy { return forwarding{st} })
			if seriesOf("peps.bond_dim")[bond].Count != 1 {
				t.Fatal("the update behind the forwarding strategy did not publish its bond dimension")
			}
			if stale := seriesOf("peps.bond_trunc_error"); len(stale) != 0 {
				t.Fatalf("forwarding strategy reports no truncation error, yet the series reads %+v", stale)
			}
		})
	}
}

// TestSymUpdateRejectsSketchedStrategy: UpdateOptions now configures
// block-sparse updates too, and the one combination they cannot serve
// must fail loudly instead of running a different factorization.
func TestSymUpdateRejectsSketchedStrategy(t *testing.T) {
	p := SymComputationalBasis(symEngine(t), 0, 1, 2, []int{0, 1})
	g, _ := SymTwoSiteGate(conservingGate(rand.New(rand.NewSource(66))), 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("implicit strategy on a block-sparse state must panic")
		}
	}()
	p.ApplyTwoSite(g, 0, 1, UpdateOptions{Strategy: implicit(1)})
}
