package peps

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/obs"
	"gokoala/internal/quantum"
)

// countSink counts completed spans and keeps nothing.
type countSink struct{ n atomic.Int64 }

func (c *countSink) SpanEnd(obs.Event) { c.n.Add(1) }
func (*countSink) Flush() error        { return nil }

// TestTracedRunIsTheTimedRun: with spans on, an instrumented engine runs
// the program it runs with obs off. On the cached J1-J2 measurement and on
// a two-layer BMPS norm the value is bit-identical, and the run allocates
// no more than the untraced run plus its span records — tracing adds
// observers and never swaps in a kernel that allocates its own results
// (the replacement-GEMM path once doubled the bytes of the measurement).
func TestTracedRunIsTheTimedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting over full contractions")
	}
	h := quantum.J1J2Heisenberg(4, 4, quantum.PaperJ1J2Params())
	state := Random(backend.Instrument(backend.NewDense()), rand.New(rand.NewSource(71)), 4, 4, 2, 2)
	ops := map[string]func() float64{
		"j1j2-measurement": func() float64 {
			return state.EnergyPerSite(h, ExpectationOptions{M: 4, Strategy: implicit(72), UseCache: true})
		},
		"twolayer-norm": func() float64 { return state.Norm(TwoLayerBMPS{M: 4, Strategy: implicit(73)}) },
	}
	// bytes runs op reps times and returns its value and the bytes
	// allocated per run.
	const reps = 3
	measure := func(op func() float64) (float64, float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var v float64
		for i := 0; i < reps; i++ {
			v = op()
		}
		runtime.ReadMemStats(&after)
		return v, float64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	for name, op := range ops {
		op() // compile the plans once, outside both measurements
		off, offBytes := measure(op)

		sink := &countSink{}
		obs.Enable(sink)
		on, onBytes := measure(op)
		if err := obs.Disable(); err != nil {
			t.Fatal(err)
		}
		spans := float64(sink.n.Load()) / reps

		if math.Float64bits(on) != math.Float64bits(off) {
			t.Errorf("%s: traced value %v, untraced %v", name, on, off)
		}
		// A span record is one 352-byte allocation; the rest of the
		// allowance covers the scoped engine copies, one per lattice span
		// and task, and run-to-run jitter in how many tasks ran inline.
		if limit := offBytes*1.01 + spans*512; onBytes > limit {
			t.Errorf("%s: traced run allocates %.0f B/op, untraced %.0f B/op with %.0f spans/op: limit %.0f",
				name, onBytes, offBytes, spans, limit)
		}
		if spans == 0 {
			t.Errorf("%s: no spans were built", name)
		}
	}
}
