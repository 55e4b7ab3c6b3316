// watch: live view of a running koala command's telemetry plane
// (-listen). It polls /metrics and /healthz, validates the exposition
// with the same strict parser the tests use, subscribes to /events for
// the step stream, and redraws a compact progress/convergence view in
// place. -once takes a single validated snapshot and exits — the
// telemetry smoke gate is built on it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gokoala/internal/telemetry"
)

// watchSnapshot is the -json encoding of one poll: health rollup, the
// full validated metric map (keys are name plus raw label block), and
// the recent event tail. Live mode emits one object per refresh
// (newline-delimited); -once emits exactly one.
type watchSnapshot struct {
	Addr    string                 `json:"addr"`
	Time    string                 `json:"time"`
	Health  telemetry.HealthStatus `json:"health"`
	Metrics map[string]float64     `json:"metrics"`
	Events  []telemetry.Event      `json:"events,omitempty"`
}

func runWatch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	once := fs.Bool("once", false, "take one snapshot and exit (nonzero on unreachable or malformed exposition)")
	jsonOut := fs.Bool("json", false, "emit snapshots as JSON instead of the terminal view")
	tailN := fs.Int("events", 8, "recent events to keep in the view")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	base := strings.TrimRight(fs.Arg(0), "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		snap, err := fetchSnapshot(client, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "koala-obs: watch:", err)
			return 1
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
		} else {
			render(os.Stdout, snap, false)
		}
		return 0
	}

	tail := &eventTail{max: *tailN}
	go tail.run(client, base+"/events")
	for {
		snap, err := fetchSnapshot(client, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "koala-obs: watch:", err)
		} else {
			snap.Events = tail.snapshot()
			if *jsonOut {
				json.NewEncoder(os.Stdout).Encode(snap)
			} else {
				render(os.Stdout, snap, true)
			}
		}
		time.Sleep(*interval)
	}
}

// fetchSnapshot polls /healthz and /metrics, failing on malformed
// exposition text or an undecodable health body. /healthz answering 503
// is a valid (degraded) snapshot, not an error.
func fetchSnapshot(client *http.Client, base string) (*watchSnapshot, error) {
	snap := &watchSnapshot{Addr: base, Time: time.Now().Format(time.RFC3339)}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&snap.Health)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/healthz: bad body: %v", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("/healthz: unexpected status %d", resp.StatusCode)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	snap.Metrics, err = telemetry.ParseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/metrics: malformed exposition: %v", err)
	}
	return snap, nil
}

// eventTail follows the SSE stream, keeping the last max events. The
// reader reconnects on any stream error so a watch started before the
// run's listener (or across a run restart) still attaches.
type eventTail struct {
	mu     sync.Mutex
	max    int
	events []telemetry.Event
	state  string
}

func (t *eventTail) run(client *http.Client, url string) {
	// SSE is a long poll; the shared client's 5s timeout would cut it.
	sse := &http.Client{Transport: client.Transport}
	for {
		t.setState("connecting")
		t.follow(sse, url)
		t.setState("disconnected")
		time.Sleep(time.Second)
	}
}

func (t *eventTail) follow(client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	t.setState("live")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev telemetry.Event
		if json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &ev) != nil {
			continue
		}
		t.mu.Lock()
		t.events = append(t.events, ev)
		if len(t.events) > t.max {
			t.events = t.events[len(t.events)-t.max:]
		}
		t.mu.Unlock()
	}
}

func (t *eventTail) setState(s string) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}

func (t *eventTail) snapshot() []telemetry.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]telemetry.Event(nil), t.events...)
}

// --- rendering ---

// render draws the snapshot. clear redraws in place with ANSI
// home+erase (live mode); -once prints plainly so output pipes clean.
func render(w io.Writer, snap *watchSnapshot, clear bool) {
	var b strings.Builder
	if clear {
		b.WriteString("\x1b[H\x1b[2J")
	}
	h := snap.Health
	fmt.Fprintf(&b, "koala-obs watch %s   %s\n", snap.Addr, snap.Time)
	fmt.Fprintf(&b, "component=%s  health=%s  policy=%s  uptime=%.1fs\n",
		orDash(h.Component), h.Status, h.Policy, h.UptimeSeconds)
	ck := make([]string, 0, len(h.Counters))
	for k := range h.Counters {
		ck = append(ck, k)
	}
	sort.Strings(ck)
	parts := make([]string, 0, len(ck))
	for _, k := range ck {
		parts = append(parts, fmt.Sprintf("%s=%d", k, h.Counters[k]))
	}
	fmt.Fprintf(&b, "counters: %s\n\n", strings.Join(parts, " "))

	rows := [][]string{}
	addRow := func(label, val string) {
		if val != "" {
			rows = append(rows, []string{label, val})
		}
	}
	addRow("progress", progressLine(snap))
	for _, m := range []struct{ label, name string }{
		{"energy/site (ite)", "koala_ite_energy_per_site"},
		{"energy/site (vqe)", "koala_vqe_energy_per_site"},
		{"vqe eval energy", "koala_vqe_eval_energy_per_site"},
		{"trunc error (svd)", "koala_svd_trunc_error"},
		{"plan hit ratio", "koala_einsum_plan_hit_ratio"},
		{"flops saved (sym)", "koala_einsum_flops_saved_ratio"},
		{"sym sectors", "koala_einsum_sym_sectors"},
		{"sym state bytes", "koala_peps_sym_state_bytes"},
		{"modeled comm s", "koala_dist_modeled_comm_seconds"},
		{"goroutines", "koala_go_goroutines"},
	} {
		if v, ok := snap.Metrics[m.name]; ok {
			note := ""
			if c, ok := snap.Metrics[m.name+"_count"]; ok && c > 0 {
				note = fmt.Sprintf("   (n=%.0f)", c)
			}
			addRow(m.label, fmt.Sprintf("%g%s", v, note))
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %s\n", r[0], r[1])
	}

	if bars := histBars(snap.Metrics, "koala_peps_bond_dim_hist_bucket"); len(bars) > 0 {
		fmt.Fprintf(&b, "\n  bond dimensions\n")
		for _, l := range bars {
			fmt.Fprintf(&b, "    %s\n", l)
		}
	}

	if len(snap.Events) > 0 {
		fmt.Fprintf(&b, "\n  recent events\n")
		for _, ev := range snap.Events {
			fmt.Fprintf(&b, "    #%-5d %-10s %s\n", ev.Seq, ev.Kind, eventFields(ev))
		}
	}
	fmt.Fprint(w, b.String())
}

// progressLine prefers the freshest step event (it carries the total);
// bare step gauges are the fallback when no event arrived yet.
func progressLine(snap *watchSnapshot) string {
	for i := len(snap.Events) - 1; i >= 0; i-- {
		ev := snap.Events[i]
		var total float64
		var unit string
		switch ev.Kind {
		case "ite.step":
			total, unit = ev.Fields["steps_total"], "step"
		case "vqe.round":
			total, unit = ev.Fields["rounds_total"], "round"
		case "rqc.gate":
			total, unit = ev.Fields["gates_total"], "gate"
		default:
			continue
		}
		if total > 0 {
			return fmt.Sprintf("%s %d/%.0f (%.0f%%)", unit, ev.Step, total, 100*float64(ev.Step)/total)
		}
		return fmt.Sprintf("%s %d", unit, ev.Step)
	}
	for _, name := range []string{"koala_ite_step", "koala_vqe_round", "koala_rqc_gate"} {
		if v, ok := snap.Metrics[name]; ok {
			return fmt.Sprintf("%s %.0f", strings.TrimPrefix(name, "koala_"), v)
		}
	}
	return ""
}

// histBars de-cumulates the le-bucketed counts of one histogram family
// and renders per-bucket bars.
func histBars(metrics map[string]float64, bucketName string) []string {
	type bucket struct {
		le    float64
		label string
		cum   float64
	}
	var bs []bucket
	for key, v := range metrics {
		name, labels := splitKey(key)
		if name != bucketName {
			continue
		}
		le, ok := labelValue(labels, "le")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil { // +Inf
			f = maxFloat
		}
		bs = append(bs, bucket{le: f, label: le, cum: v})
	}
	if len(bs) == 0 {
		return nil
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var out []string
	prev, maxCount := 0.0, 0.0
	counts := make([]float64, len(bs))
	for i, b := range bs {
		counts[i] = b.cum - prev
		prev = b.cum
		if counts[i] > maxCount {
			maxCount = counts[i]
		}
	}
	for i, b := range bs {
		if counts[i] == 0 {
			continue
		}
		width := 1
		if maxCount > 0 {
			width = int(30 * counts[i] / maxCount)
			if width < 1 {
				width = 1
			}
		}
		out = append(out, fmt.Sprintf("le %-8s %6.0f %s", b.label, counts[i], strings.Repeat("#", width)))
	}
	return out
}

const maxFloat = 1.797693134862315708145274237317043567981e308

func eventFields(ev telemetry.Event) string {
	keys := make([]string, 0, len(ev.Fields))
	for k := range ev.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	if ev.Step != 0 {
		parts = append(parts, fmt.Sprintf("step=%d", ev.Step))
	}
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, ev.Fields[k]))
	}
	return strings.Join(parts, " ")
}

// splitKey splits a ParseMetrics map key into name and raw label block.
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// labelValue extracts one label's value from a raw {k="v",...} block.
func labelValue(block, key string) (string, bool) {
	want := key + "=\""
	i := strings.Index(block, want)
	if i < 0 {
		return "", false
	}
	rest := block[i+len(want):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
