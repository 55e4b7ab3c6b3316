package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// resetAll returns the package and health counters to a clean slate so
// tests compose regardless of order.
func resetAll(t *testing.T) {
	t.Helper()
	Reset()
	obs.Disable()
	obs.ResetCounters()
	health.ResetCounters()
	t.Cleanup(func() {
		Reset()
		obs.Disable()
		obs.ResetCounters()
		health.ResetCounters()
		health.SetPolicy(health.PolicyOff)
	})
}

func TestSeriesObserveAndSnapshot(t *testing.T) {
	resetAll(t)
	obs.Enable()
	obs.Observe("ite.energy_per_site", -1.5)
	obs.Observe("ite.energy_per_site", -2.0)
	obs.Observe("peps.bond_dim", 4, obs.Label{Key: "dir", Value: "h"}, obs.Label{Key: "row", Value: "0"}, obs.Label{Key: "col", Value: "1"})
	obs.ObserveHist("svd.trunc_error_hist", obs.LogBounds, 1e-9)

	_, series, hists := obs.Snapshot()
	byKey := map[string]obs.SeriesSnapshot{}
	for _, s := range series {
		byKey[s.Name+labelString(s.Labels)] = s
	}
	e, ok := byKey["ite.energy_per_site"]
	if !ok {
		t.Fatalf("missing ite.energy_per_site in snapshot: %+v", series)
	}
	if e.Last != -2.0 || e.Count != 2 || e.Sum != -3.5 {
		t.Fatalf("series aggregate wrong: %+v", e)
	}
	if _, ok := byKey[`peps.bond_dim{dir="h",row="0",col="1"}`]; !ok {
		t.Fatalf("labeled series missing: %v", byKey)
	}
	if len(hists) != 1 || hists[0].Count != 1 {
		t.Fatalf("hist snapshot wrong: %+v", hists)
	}
}

func TestObserveInactiveIsNoop(t *testing.T) {
	resetAll(t)
	obs.Observe("ite.step", 1)
	obs.ObserveHist("peps.bond_dim_hist", obs.Pow2Bounds, 4)
	_, series, hists := obs.Snapshot()
	if len(series) != 0 || len(hists) != 0 {
		t.Fatalf("inactive observes must not register: %v %v", series, hists)
	}
}

// TestMetricsExpositionRoundTrip renders /metrics with live series,
// histograms, run info, and health counters, then requires the strict
// parser to accept every line and find the families watch depends on.
func TestMetricsExpositionRoundTrip(t *testing.T) {
	resetAll(t)
	obs.Enable()
	SetRunInfo("ite", map[string]string{"model": "tfi", "rows": "2"})
	obs.Observe("ite.energy_per_site", -2.125)
	obs.Observe("ite.step", 3)
	obs.Observe("svd.trunc_error", 2.5e-10)
	obs.Observe("peps.bond_trunc_error", 1e-9, obs.Label{Key: "dir", Value: "h"}, obs.Label{Key: "row", Value: "0"}, obs.Label{Key: "col", Value: "0"})
	obs.ObserveHist("peps.bond_dim_hist", obs.Pow2Bounds, 4)
	obs.ObserveHist("solver.sweeps", obs.Pow2Bounds, 7, obs.Label{Key: "solver", Value: "jacobi_svd"})

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	samples, err := ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("exposition rejected by strict parser: %v", err)
	}
	for _, want := range []string{
		"koala_ite_energy_per_site",
		"koala_ite_step",
		"koala_svd_trunc_error",
		`koala_peps_bond_trunc_error{dir="h",row="0",col="0"}`,
		`koala_peps_bond_dim_hist_bucket{le="4"}`,
		"koala_peps_bond_dim_hist_count",
		`koala_solver_sweeps_bucket{solver="jacobi_svd",le="8"}`,
		"koala_einsum_plan_hit_ratio",
		"koala_health_nan_detected",
		"koala_go_goroutines",
	} {
		if _, ok := samples[want]; !ok {
			keys := make([]string, 0, len(samples))
			for k := range samples {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t.Fatalf("sample %q missing from exposition; have:\n%s", want, strings.Join(keys, "\n"))
		}
	}
	if v := samples[`koala_peps_bond_dim_hist_bucket{le="4"}`]; v != 1 {
		t.Fatalf("bucket le=4 cumulative count = %g, want 1", v)
	}
	if v := samples["koala_ite_energy_per_site"]; v != -2.125 {
		t.Fatalf("gauge value %g, want -2.125", v)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"bad name", "0bad 1\n"},
		{"sample before TYPE has bad chars", "koala_x{le=4} 1\n"},
		{"bad value", "# TYPE koala_x gauge\nkoala_x notanumber\n"},
		{"duplicate sample", "# TYPE koala_x gauge\nkoala_x 1\nkoala_x 2\n"},
		{"bad TYPE kind", "# TYPE koala_x wat\nkoala_x 1\n"},
		{"unterminated label block", "# TYPE koala_x gauge\nkoala_x{a=\"b\" 1\n"},
	} {
		if _, err := ParseMetrics(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: parser accepted malformed exposition %q", tc.name, tc.text)
		}
	}
}

// TestHealthzTransitions drives /healthz 200 -> 503 -> 200 with the
// fault injector: a NaN flipped into a tensor and counted under
// PolicyCount must degrade the rollup until counters reset.
func TestHealthzTransitions(t *testing.T) {
	resetAll(t)
	health.SetPolicy(health.PolicyCount)
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func() (int, HealthStatus) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("/healthz body not JSON: %v", err)
		}
		return resp.StatusCode, st
	}

	if code, st := get(); code != http.StatusOK || st.Status != "ok" {
		t.Fatalf("clean state: code=%d status=%q, want 200 ok", code, st.Status)
	}

	x := tensor.New(2, 2)
	health.NewInjector(1).FlipNaN(x)
	health.CheckTensor("test", x)
	if code, st := get(); code != http.StatusServiceUnavailable || st.Status != "degraded" {
		t.Fatalf("after NaN: code=%d status=%q, want 503 degraded", code, st.Status)
	} else if st.Counters["nan_detected"] == 0 {
		t.Fatalf("nan_detected counter not surfaced: %+v", st.Counters)
	}

	health.ResetCounters()
	if code, st := get(); code != http.StatusOK || st.Status != "ok" {
		t.Fatalf("after reset: code=%d status=%q, want 200 ok", code, st.Status)
	}
}

// TestSSEOrdering publishes from concurrent goroutines and requires the
// stream to deliver globally ascending sequence numbers and, per
// publisher, its own events in publish order.
func TestSSEOrdering(t *testing.T) {
	resetAll(t)
	obs.Enable()
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}

	const publishers, perPub = 4, 25
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				Publish("test.tick", i, map[string]float64{"pub": float64(p), "i": float64(i)})
			}
		}(p)
	}
	wg.Wait()

	sc := bufio.NewScanner(resp.Body)
	lastSeq := int64(-1)
	lastPerPub := map[int]float64{}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < publishers*perPub && sc.Scan() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %d events", got)
		}
		line := sc.Text()
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimSpace(line[5:])), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		if ev.Kind != "test.tick" {
			continue // the hello/run event
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence not ascending: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		p := int(ev.Fields["pub"])
		if last, ok := lastPerPub[p]; ok && ev.Fields["i"] <= last {
			t.Fatalf("publisher %d reordered: i=%g after %g", p, ev.Fields["i"], last)
		}
		lastPerPub[p] = ev.Fields["i"]
		got++
	}
	if got != publishers*perPub {
		t.Fatalf("received %d events, want %d (scan err %v)", got, publishers*perPub, sc.Err())
	}
}

func TestSSEReplay(t *testing.T) {
	resetAll(t)
	obs.Enable()
	for i := 0; i < 5; i++ {
		Publish("warm.up", i, nil)
	}
	_, replay, cancel := Subscribe(8)
	defer cancel()
	if len(replay) != 5 {
		t.Fatalf("replay length %d, want 5", len(replay))
	}
	for i := 1; i < len(replay); i++ {
		if replay[i].Seq <= replay[i-1].Seq {
			t.Fatalf("replay out of order: %+v", replay)
		}
	}
}

// A truncation error is the return value of the factorization that
// produced it, published by the caller under the bond it belongs to: no
// slot keyed on the goroutine stands between the two any more. What is
// left to hold here is the registry side of that: goroutines publishing
// the errors of different bonds at the same time each land in their own
// labeled series, and one scrape carries every bond with its own value.
func TestPendingTruncSameGoroutineOnly(t *testing.T) {
	resetAll(t)
	obs.Enable()
	const bonds = 8
	var wg sync.WaitGroup
	for b := 0; b < bonds; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				obs.Observe("peps.bond_trunc_error", float64(b)/16,
					obs.Label{Key: "dir", Value: "h"}, obs.Label{Key: "row", Value: "0"}, obs.Label{Key: "col", Value: fmt.Sprint(b)})
			}
		}(b)
	}
	wg.Wait()
	var buf strings.Builder
	WriteMetrics(&buf)
	samples, err := ParseMetrics(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bonds; b++ {
		key := fmt.Sprintf(`{dir="h",row="0",col="%d"}`, b)
		if v, ok := samples["koala_peps_bond_trunc_error"+key]; !ok || v != float64(b)/16 {
			t.Fatalf("bond %d reads %v (present %v), want its own error %v", b, v, ok, float64(b)/16)
		}
		if n := samples["koala_peps_bond_trunc_error_count"+key]; n != 200 {
			t.Fatalf("bond %d counted %v observations, want 200", b, n)
		}
	}
}

func TestServerServeClose(t *testing.T) {
	resetAll(t)
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		t.Fatal("Serve must turn the registry on")
	}
	if obs.Start("probe") != nil {
		t.Fatal("a listener alone must not make the run build spans")
	}
	obs.Observe("ite.step", 1)
	for _, path := range []string{"/metrics", "/healthz", "/", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("listener still answers after Close")
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestEventRingDropsOldest(t *testing.T) {
	resetAll(t)
	obs.Enable()
	for i := 0; i < ringSize+10; i++ {
		Publish("fill", i, nil)
	}
	_, replay, cancel := Subscribe(4)
	defer cancel()
	if len(replay) != ringSize {
		t.Fatalf("replay %d, want ring size %d", len(replay), ringSize)
	}
	if replay[0].Step != 10 {
		t.Fatalf("oldest retained step %d, want 10", replay[0].Step)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"ite.energy_per_site": "koala_ite_energy_per_site",
		"svd.trunc_error":     "koala_svd_trunc_error",
		"einsum.plan.hits":    "koala_einsum_plan_hits",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// BenchmarkInactiveObserve measures the disabled hot path — the cost
// every solver/update call pays when no -listen plane is attached. It
// must stay a single atomic load with zero allocations.
func BenchmarkInactiveObserve(b *testing.B) {
	Reset()
	obs.Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Observe("svd.trunc_error", 1e-9)
	}
}

func BenchmarkActiveObserve(b *testing.B) {
	Reset()
	obs.Enable()
	defer obs.Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Observe("svd.trunc_error", 1e-9)
	}
}

func TestWriteMetricsValidUnderConcurrentLoad(t *testing.T) {
	resetAll(t)
	obs.Enable()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obs.Observe("load.series", float64(i), obs.Label{Key: "g", Value: fmt.Sprint(g)})
				obs.ObserveHist("load.hist", obs.Pow2Bounds, float64(i%64))
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		WriteMetrics(&sb)
		if _, err := ParseMetrics(strings.NewReader(sb.String())); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d invalid under load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// The health counters reach the exposition through the one registry
// dump: exactly one sample each, whether or not they have fired.
func TestExpositionNoDuplicateHealthSamples(t *testing.T) {
	resetAll(t)
	obs.Enable()
	t.Cleanup(func() { obs.Disable() })
	health.CountGramFallback()

	var buf strings.Builder
	WriteMetrics(&buf)
	samples, err := ParseMetrics(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition rejected by strict parser: %v", err)
	}
	if v := samples["koala_health_gram_fallbacks"]; v != 1 {
		t.Fatalf("koala_health_gram_fallbacks = %g, want 1", v)
	}
}
