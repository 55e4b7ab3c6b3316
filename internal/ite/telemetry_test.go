package ite

import (
	"net/http"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/telemetry"
)

func evolveWithTelemetry(t *testing.T, steps int, stop func() bool) ([]telemetry.Event, Result) {
	t.Helper()
	telemetry.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		telemetry.Reset()
	})

	rows, cols := 2, 2
	h := quantum.TransverseFieldIsing(rows, cols, -1, -3.5)
	state := PlusState(peps.ComputationalZeros(backend.NewDense(), rows, cols))
	res := Evolve(state, h, Options{
		Tau:             0.05,
		Steps:           steps,
		EvolutionRank:   2,
		ContractionRank: 4,
		Strategy:        einsumsvd.Explicit{},
		MeasureEvery:    2,
		Stop:            stop,
	})
	_, replay, cancel := telemetry.Subscribe(1)
	cancel()
	return replay, res
}

// TestITEPublishesStepEvents is the acceptance check that a live run
// emits at least one SSE event per ITE step, with the energy attached
// on measured steps.
func TestITEPublishesStepEvents(t *testing.T) {
	const steps = 5
	events, _ := evolveWithTelemetry(t, steps, nil)

	stepSeen := map[int]bool{}
	measured := 0
	for _, ev := range events {
		if ev.Kind != "ite.step" {
			continue
		}
		stepSeen[ev.Step] = true
		if ev.Fields["steps_total"] != steps {
			t.Fatalf("event %+v missing steps_total=%d", ev, steps)
		}
		if _, ok := ev.Fields["energy_per_site"]; ok {
			measured++
		}
	}
	for s := 1; s <= steps; s++ {
		if !stepSeen[s] {
			t.Fatalf("no ite.step event for step %d; events: %+v", s, events)
		}
	}
	if measured == 0 {
		t.Fatal("no step event carried energy_per_site")
	}

	_, series, _ := obs.Snapshot()
	names := map[string]obs.SeriesSnapshot{}
	for _, s := range series {
		names[s.Name] = s
	}
	if s, ok := names["ite.step"]; !ok || s.Last != steps {
		t.Fatalf("ite.step series = %+v, want last=%d", s, steps)
	}
	if s, ok := names["ite.energy_per_site"]; !ok || s.Count == 0 {
		t.Fatalf("ite.energy_per_site series missing or empty: %+v", s)
	}
	if _, ok := names["svd.trunc_error"]; !ok {
		t.Fatal("svd.trunc_error series missing (linalg publisher not wired)")
	}
}

// TestITEStopHookExitsEarly verifies the cooperative stop: the loop
// finishes the in-flight step, measures, publishes ite.stop, and
// returns early.
func TestITEStopHookExitsEarly(t *testing.T) {
	calls := 0
	stop := func() bool {
		calls++
		return calls >= 2
	}
	events, res := evolveWithTelemetry(t, 50, stop)

	var stopped bool
	lastStep := 0
	for _, ev := range events {
		if ev.Kind == "ite.stop" {
			stopped = true
			lastStep = ev.Step
		}
	}
	if !stopped {
		t.Fatalf("no ite.stop event; events: %+v", events)
	}
	if lastStep != 2 {
		t.Fatalf("stopped at step %d, want 2", lastStep)
	}
	if n := len(res.MeasuredAt); n == 0 || res.MeasuredAt[n-1] != 2 {
		t.Fatalf("stop must force a final measurement at step 2; measured at %v", res.MeasuredAt)
	}
}

// TestListeningRunScrape is one /metrics scrape of a run as `-listen`
// sets it up (telemetry.Serve, an instrumented engine, nothing else): the
// strict parser accepts it — which rejects a family declared or a sample
// written twice, the failure two registries bridged by name used to need
// a collision skip for — the families a watcher reads are there, and the
// monitor has not made the run build spans.
func TestListeningRunScrape(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		obs.Disable()
		telemetry.Reset()
	})
	h := quantum.TransverseFieldIsing(2, 2, -1, -3.5)
	state := PlusState(peps.ComputationalZeros(backend.Instrument(backend.NewDense()), 2, 2))
	Evolve(state, h, Options{Tau: 0.05, Steps: 3, EvolutionRank: 2, ContractionRank: 4,
		Strategy: einsumsvd.Explicit{}, MeasureEvery: 1})
	if obs.Start("probe") != nil {
		t.Fatal("a listener alone made the run build spans")
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("scrape rejected by the strict parser: %v", err)
	}
	for _, want := range []string{
		"koala_svd_trunc_error", "koala_einsum_plan_hit_ratio", "koala_einsum_contractions",
		"koala_ite_energy_per_site", "koala_health_nan_detected",
		`koala_peps_bond_trunc_error{dir="h",row="0",col="0"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("scrape has no %s", want)
		}
	}
	if samples["koala_einsum_contractions"] == 0 {
		t.Error("koala_einsum_contractions is 0 after three ITE steps")
	}
}
