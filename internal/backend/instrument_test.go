package backend

import (
	"math/rand"
	"testing"

	"gokoala/internal/dist"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

func TestInstrumentIdempotent(t *testing.T) {
	e := Instrument(NewDense())
	if Instrument(e) != e {
		t.Fatal("double Instrument should return the same wrapper")
	}
	if e.Name() != "dense" {
		t.Fatalf("Name = %q want dense", e.Name())
	}
}

// TestInstrumentedMatchesInner checks every kernel produces identical
// results through the decorator, traced and untraced, for both engines.
func TestInstrumentedMatchesInner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.Rand(rng, 4, 5, 3)
	b := tensor.Rand(rng, 3, 6)
	tall := tensor.Rand(rng, 24, 4)

	engines := map[string]Engine{
		"dense": NewDense(),
		"dist":  NewDist(dist.NewGrid(dist.Stampede2(16)), true),
	}
	for name, inner := range engines {
		for _, traced := range []bool{false, true} {
			if traced {
				obs.Enable(obs.PhaseSummary())
			} else {
				obs.Disable()
			}
			ie := Instrument(inner)
			got := ie.Einsum("abc,cd->abd", a, b)
			want := inner.Einsum("abc,cd->abd", a, b)
			if !tensor.AllClose(got, want, 1e-12, 1e-12) {
				t.Fatalf("%s traced=%v: Einsum differs", name, traced)
			}
			q1, r1 := ie.QRSplit(a, 2)
			q2, r2 := inner.QRSplit(a, 2)
			if !tensor.AllClose(ie.Einsum("abk,kc->abc", q1, r1), ie.Einsum("abk,kc->abc", q2, r2), 1e-10, 1e-10) {
				t.Fatalf("%s traced=%v: QRSplit differs", name, traced)
			}
			u1, s1, _ := ie.TruncSVD(b, 2)
			u2, s2, _ := inner.TruncSVD(b, 2)
			if len(s1) != len(s2) {
				t.Fatalf("%s traced=%v: TruncSVD rank differs", name, traced)
			}
			for i := range s1 {
				if d := s1[i] - s2[i]; d > 1e-10 || d < -1e-10 {
					t.Fatalf("%s traced=%v: singular values differ", name, traced)
				}
			}
			_ = u1
			_ = u2
			o1 := ie.Orth(tall)
			if o1.Dim(0) != tall.Dim(0) {
				t.Fatalf("%s traced=%v: Orth shape wrong", name, traced)
			}
			obs.Disable()
		}
	}
}

// TestInstrumentedSpansAndCounters verifies the decorator reports GEMM
// flops through the observers it adds, emits an einsum span — under the
// span of the scope the engine value was handed out for — and that a Dist
// inner engine contributes modeled-seconds annotations. With the registry
// on but no sink installed the counters still count and no span is built.
func TestInstrumentedSpansAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.Rand(rng, 6, 7)
	b := tensor.Rand(rng, 7, 8)

	obs.Enable()
	defer obs.Disable()
	ie := Instrument(NewDense())
	if scoped, sp := Scope(ie, "lattice.op"); sp != nil || scoped != ie {
		t.Fatal("Scope must hand back the engine itself and no span while no sink is installed")
	}
	ie.Einsum("ab,bc->ac", a, b)
	if got := obs.MetricValueOf("einsum.gemm.flops"); got != 6*8*7 {
		t.Fatalf("einsum.gemm.flops = %v want %d", got, 6*8*7)
	}
	if got := obs.MetricValueOf("einsum.contractions"); got != 1 {
		t.Fatalf("einsum.contractions = %v want 1", got)
	}

	sink := &eventSink{}
	obs.Enable(sink)
	scoped, sp := Scope(ie, "lattice.op")
	if SpanOf(scoped) != sp || SpanOf(ie) != nil {
		t.Fatal("Scope must bind the new span to the returned engine only")
	}
	scoped.Einsum("ab,bc->ac", a, b)
	inner, isp := Scope(scoped, "lattice.inner")
	inner.Orth(a)
	isp.End()
	sp.End()
	ie.Einsum("ab,bc->ac", a, b) // the unscoped engine stays at the root
	byName := map[string][]obs.Event{}
	for _, e := range sink.events {
		byName[e.Name] = append(byName[e.Name], e)
	}
	op, in := byName["lattice.op"][0], byName["lattice.inner"][0]
	if es := byName["einsum"]; len(es) != 2 || es[0].Parent != op.ID || es[1].Parent != 0 {
		t.Fatalf("einsum spans %+v: want one under lattice.op (%d) and one at the root", es, op.ID)
	}
	if in.Parent != op.ID || byName["backend.orth"][0].Parent != in.ID {
		t.Fatalf("nested scope: lattice.inner under %d, orth under %d; want %d and %d",
			in.Parent, byName["backend.orth"][0].Parent, op.ID, in.ID)
	}

	// Dist engine: spans must carry machine-model annotations.
	obs.Enable(obs.PhaseSummary())
	grid := dist.NewGrid(dist.Stampede2(64))
	de := Instrument(NewDist(grid, false))
	de.Einsum("ab,bc->ca", a, b) // output transpose forces a metered move
	var einsumStat obs.PhaseStat
	for _, s := range obs.Summary() {
		if s.Name == "einsum" {
			einsumStat = s
		}
	}
	if einsumStat.Count != 1 {
		t.Fatalf("dist einsum span missing: %+v", obs.Summary())
	}
	if einsumStat.Attrs["modeled_s"] <= 0 {
		t.Fatalf("dist einsum span has no modeled seconds: %+v", einsumStat.Attrs)
	}
	if obs.MetricValueOf("einsum.gemm.flops") != 6*8*7 {
		t.Fatalf("dist flop counter = %v", obs.MetricValueOf("einsum.gemm.flops"))
	}
}

// eventSink records completed spans. The spans of this file's tests end on
// the test goroutine, so it needs no lock.
type eventSink struct{ events []obs.Event }

func (s *eventSink) SpanEnd(e obs.Event) { s.events = append(s.events, e) }
func (*eventSink) Flush() error          { return nil }
