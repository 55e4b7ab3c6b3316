// Package telemetry is the live HTTP surface over the one metric registry
// (internal/obs): where obs records a run for post-hoc analysis, telemetry
// serves the *running* job — the registry as Prometheus text (/metrics,
// prom.go), the numerical-health rollup (/healthz), structured step
// events as a Server-Sent-Events stream (/events) and the runtime
// profiles (/debug/pprof; see server.go) — over an embeddable
// stdlib-only listener. It holds no metric of its own: library code
// (linalg truncations, peps bond updates, ite steps) publishes into obs,
// gated by the one obs.Enable switch, and this package renders what it
// finds there. Event publication takes a short mutex to give every SSE
// subscriber the same globally ordered sequence.
//
// Series naming: recorders pass bare dotted names ("ite.energy_per_site");
// the Prometheus renderer (prom.go) prefixes "koala_" and rewrites
// non-alphanumerics, so the wire name is koala_ite_energy_per_site.
package telemetry

import (
	"sync"
	"time"

	"gokoala/internal/obs"
)

// --- run info ---

var runInfo struct {
	mu        sync.Mutex
	component string
	labels    map[string]string
	start     time.Time
}

// SetRunInfo names the running component ("ite", "vqe", ...) and its
// static labels; rendered as the koala_run_info metric and sent to new
// SSE subscribers as a "run" event.
func SetRunInfo(component string, labels map[string]string) {
	runInfo.mu.Lock()
	runInfo.component = component
	runInfo.labels = labels
	if runInfo.start.IsZero() {
		runInfo.start = time.Now()
	}
	runInfo.mu.Unlock()
}

// RunInfo returns the component name, static labels, and process start
// time recorded by SetRunInfo.
func RunInfo() (string, map[string]string, time.Time) {
	runInfo.mu.Lock()
	defer runInfo.mu.Unlock()
	return runInfo.component, runInfo.labels, runInfo.start
}

// --- structured step events (the /events SSE payload) ---

// Event is one structured progress record: an ITE step, a VQE round, an
// RQC gate application. Seq is a process-global, strictly increasing
// sequence number — subscribers always observe events in Seq order.
type Event struct {
	Seq        int64              `json:"seq"`
	TimeUnixMS int64              `json:"time_unix_ms"`
	Kind       string             `json:"kind"`
	Step       int                `json:"step,omitempty"`
	Fields     map[string]float64 `json:"fields,omitempty"`
}

// ringSize bounds the replay buffer new subscribers receive.
const ringSize = 64

var events struct {
	mu   sync.Mutex
	seq  int64
	ring []Event // last ringSize events, oldest first
	subs map[int]chan Event
	next int // subscriber id allocator
}

// Publish records a structured event and fans it out to subscribers.
// No-op (one atomic load) while collection is disabled. Slow
// subscribers never block the recorder: events that do not fit a
// subscriber's buffer are dropped for that subscriber only, counted in
// the events.dropped series.
func Publish(kind string, step int, fields map[string]float64) {
	if !obs.Enabled() {
		return
	}
	events.mu.Lock()
	events.seq++
	ev := Event{
		Seq:        events.seq,
		TimeUnixMS: time.Now().UnixMilli(),
		Kind:       kind,
		Step:       step,
		Fields:     fields,
	}
	events.ring = append(events.ring, ev)
	if len(events.ring) > ringSize {
		events.ring = events.ring[len(events.ring)-ringSize:]
	}
	dropped := 0
	for _, ch := range events.subs {
		select {
		case ch <- ev:
		default:
			dropped++
		}
	}
	events.mu.Unlock()
	if dropped > 0 {
		obs.Observe("events.dropped", float64(dropped))
	}
}

// Subscribe registers an event consumer: ch receives every future event
// in Seq order (buffered by buf; overflow drops, never blocks the
// recorder), replay holds the most recent past events. Call cancel to
// unsubscribe and close the channel.
func Subscribe(buf int) (ch <-chan Event, replay []Event, cancel func()) {
	c := make(chan Event, buf)
	events.mu.Lock()
	if events.subs == nil {
		events.subs = make(map[int]chan Event)
	}
	id := events.next
	events.next++
	events.subs[id] = c
	replay = append([]Event(nil), events.ring...)
	events.mu.Unlock()
	return c, replay, func() {
		events.mu.Lock()
		if _, ok := events.subs[id]; ok {
			delete(events.subs, id)
			close(c)
		}
		events.mu.Unlock()
	}
}

// Reset clears queued events and the run info, and
// cancels active subscribers. Serve calls it so each run's stream starts
// clean; tests use it for isolation. The metric registry is obs's to
// reset (obs.Enable, obs.ResetCounters).
func Reset() {
	events.mu.Lock()
	events.seq = 0
	events.ring = nil
	for id, ch := range events.subs {
		delete(events.subs, id)
		close(ch)
	}
	events.mu.Unlock()
	runInfo.mu.Lock()
	runInfo.component = ""
	runInfo.labels = nil
	runInfo.start = time.Time{}
	runInfo.mu.Unlock()
}
