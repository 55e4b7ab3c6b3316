package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

func TestStatsSub(t *testing.T) {
	g := NewGrid(Stampede2(64))
	g.Allgather(1 << 20)
	before := g.Snapshot()
	g.AllToAll(1 << 16)
	g.ParallelFlops(1000)
	d := g.Snapshot().Sub(before)
	if d.Redistributions != 1 {
		t.Fatalf("delta redistributions = %d want 1", d.Redistributions)
	}
	if d.Bytes != 1<<16 {
		t.Fatalf("delta bytes = %d want %d", d.Bytes, 1<<16)
	}
	if d.ParallelFlops != 1000 {
		t.Fatalf("delta parallel flops = %d want 1000", d.ParallelFlops)
	}
	if d.CompSeconds <= 0 || d.CommSeconds() <= 0 {
		t.Fatalf("delta seconds not positive: %+v", d)
	}
	// The region before the snapshot must not leak into the delta.
	full := g.Snapshot()
	if d.Bytes >= full.Bytes {
		t.Fatalf("delta bytes %d should be less than cumulative %d", d.Bytes, full.Bytes)
	}
	// Sub of a snapshot with itself is zero.
	z := full.Sub(full)
	if z.Msgs != 0 || z.Bytes != 0 || z.ModeledSeconds() != 0 {
		t.Fatalf("self-subtraction not zero: %+v", z)
	}
}

// TestSnapshotConcurrent hammers the grid's metered operations from
// concurrent rank goroutines while snapshots are taken — the data-race
// hazard of bridging per-rank accounting into shared counters. Run under
// go test -race.
func TestSnapshotConcurrent(t *testing.T) {
	g := NewGrid(Stampede2(64))
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Allgather(1024)
				g.Allreduce(256)
				g.AllToAll(512)
				g.Bcast(128)
				g.ParallelFlops(10)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := g.Snapshot()
		for i := 0; i < 500; i++ {
			cur := g.Snapshot()
			d := cur.Sub(prev)
			if d.Bytes < 0 || d.Msgs < 0 || d.CompSeconds < 0 {
				t.Error("snapshot went backwards")
				return
			}
			prev = cur
		}
	}()
	wg.Wait()
	<-done
	s := g.Snapshot()
	wantBytes := int64(workers * iters * (1024 + 256 + 512 + 128))
	if s.Bytes != wantBytes {
		t.Fatalf("bytes = %d want %d", s.Bytes, wantBytes)
	}
	if s.Redistributions != workers*iters {
		t.Fatalf("redistributions = %d want %d", s.Redistributions, workers*iters)
	}
	if s.ParallelFlops != workers*iters*10 {
		t.Fatalf("parallel flops = %d want %d", s.ParallelFlops, workers*iters*10)
	}
}

// TestObsBridgeConcurrent checks the grid-to-obs counter bridge under
// concurrent increments: the obs totals must match the grid's own
// accounting exactly.
func TestObsBridgeConcurrent(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	g := NewGrid(Stampede2(128))
	const workers = 6
	const iters = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.AllToAll(2048)
				g.ParallelFlops(64)
				g.Sequential(func() { tensor.AddFlops(8) })
			}
		}()
	}
	wg.Wait()
	s := g.Snapshot()
	if got := obs.MetricValueOf("dist.comm.bytes"); got != float64(s.Bytes) {
		t.Fatalf("obs dist.comm.bytes = %v want %d", got, s.Bytes)
	}
	if got := obs.MetricValueOf("dist.comm.msgs"); got != float64(s.Msgs) {
		t.Fatalf("obs dist.comm.msgs = %v want %d", got, s.Msgs)
	}
	if got := obs.MetricValueOf("dist.redistributions"); got != float64(s.Redistributions) {
		t.Fatalf("obs dist.redistributions = %v want %d", got, s.Redistributions)
	}
	if got := obs.MetricValueOf("dist.modeled.comm_seconds"); math.Abs(got-s.CommSeconds()) > 1e-9*math.Abs(s.CommSeconds()) {
		t.Fatalf("obs modeled comm seconds = %v want %v", got, s.CommSeconds())
	}
	if got := obs.MetricValueOf("dist.modeled.comp_seconds"); math.Abs(got-s.CompSeconds) > 1e-9*math.Abs(s.CompSeconds) {
		t.Fatalf("obs modeled comp seconds = %v want %v", got, s.CompSeconds)
	}
}

// TestTraceRegion checks the span annotations produced from a Stats
// delta, and that TraceRegion is transparent when obs is disabled.
func TestTraceRegion(t *testing.T) {
	g := NewGrid(Stampede2(64))
	ran := false
	g.TraceRegion("disabled", func() { ran = true })
	if !ran {
		t.Fatal("TraceRegion must run f while disabled")
	}

	obs.Enable(obs.PhaseSummary())
	defer obs.Disable()
	rng := rand.New(rand.NewSource(1))
	a := tensor.Rand(rng, 32, 8)
	b := tensor.Rand(rng, 8, 16)
	g.TraceRegion("dist.matmul", func() { g.MatMul(a, b) })
	var stat obs.PhaseStat
	for _, s := range obs.Summary() {
		if s.Name == "dist.matmul" {
			stat = s
		}
	}
	if stat.Count != 1 {
		t.Fatalf("span missing: %+v", obs.Summary())
	}
	if stat.Attrs["modeled_s"] <= 0 {
		t.Fatalf("span has no modeled seconds: %+v", stat.Attrs)
	}
	if stat.Attrs["comm_bytes"] <= 0 {
		t.Fatalf("span has no comm bytes: %+v", stat.Attrs)
	}
}
