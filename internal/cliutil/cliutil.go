// Package cliutil holds the flag helpers shared by the koala command
// line tools, so every binary exposes the same seeding and
// observability surface: -seed, -trace (Chrome trace_event file for
// chrome://tracing or Perfetto), and -metrics (JSON-lines span/metrics
// log). See DESIGN.md "Observability" for the file formats.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gokoala/internal/dist"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/telemetry"
	"gokoala/internal/tensor"
)

// KernelFlag registers the standard -kernel flag selecting the compute
// kernel implementation. Call ApplyKernel with its value after
// flag.Parse. The KOALA_KERNEL environment variable sets the same
// override for library users; the flag wins when both are given.
func KernelFlag() *string {
	return flag.String("kernel", "",
		"compute kernels: auto (CPU detect) | asm (require AVX2+FMA) | go (portable reference)")
}

// ApplyKernel installs the -kernel flag value; "" keeps the KOALA_KERNEL
// environment override (or auto-detection) already in effect.
func ApplyKernel(s string) error {
	if s == "" {
		return nil
	}
	return tensor.SetKernel(s)
}

// RanksFlag registers the standard -ranks flag: the SPMD grid size for
// engines that take one. 0 keeps each suite's own default.
func RanksFlag() *int {
	return flag.Int("ranks", 0, "SPMD ranks for dist engines (0 = suite default)")
}

// F32SketchFlag registers the standard -f32-sketch flag: compute the
// randomized-SVD sketch and power-iteration contractions in complex64
// (see einsumsvd.ImplicitRand.Sketch32). The probe and final projection
// stay complex128 and the probe-driven exact fallback still applies.
func F32SketchFlag() *bool {
	return flag.Bool("f32-sketch", false,
		"complex64 sketch stage for randomized SVD (probe and projection stay complex128)")
}

// SeedFlag registers the standard -seed flag with the given default.
func SeedFlag(def int64) *int64 {
	return flag.Int64("seed", def, "random seed")
}

// SymFlag registers the standard -sym flag selecting the block-sparse
// symmetric tensor backend. Parse its value with ParseSym after
// flag.Parse.
func SymFlag() *string {
	return flag.String("sym", "none",
		"charge symmetry for the block-sparse backend: u1 | z2 | none")
}

// ParseSym maps a -sym flag value to (enabled, modulus): "u1" enables
// the particle-number symmetry (modulus 0), "z2" the parity symmetry
// (modulus 2), "none" or "" disables the symmetric backend.
func ParseSym(s string) (enabled bool, mod int, err error) {
	switch s {
	case "", "none":
		return false, 0, nil
	case "u1":
		return true, 0, nil
	case "z2":
		return true, 2, nil
	}
	return false, 0, fmt.Errorf("cliutil: unknown symmetry %q (want u1|z2|none)", s)
}

// WorkersFlag registers the standard -workers flag. Call ApplyWorkers
// with its value after flag.Parse.
func WorkersFlag() *int {
	return flag.Int("workers", 0, "worker pool size (0 = KOALA_WORKERS env or GOMAXPROCS)")
}

// ApplyWorkers resizes the worker pool when the -workers flag was given
// a positive value; 0 keeps the KOALA_WORKERS / GOMAXPROCS default. A
// negative value is rejected with a one-line warning (mirroring the
// KOALA_WORKERS validation in pool) rather than silently ignored.
func ApplyWorkers(n int) {
	if n > 0 {
		pool.SetWorkers(n)
		return
	}
	if n < 0 {
		fmt.Fprintf(os.Stderr, "koala: ignoring -workers=%d: must be positive; using default (%d workers)\n",
			n, pool.Size())
	}
}

// ListenFlag registers the standard -listen flag. Call StartTelemetry
// with its value after flag.Parse (and after ObsConfig.Setup, so sinks
// installed by -trace/-metrics are kept).
func ListenFlag() *string {
	return flag.String("listen", "",
		"serve live telemetry on this address (/metrics /healthz /events /debug/pprof), e.g. :9090")
}

// StartTelemetry starts the live telemetry plane when addr is non-empty
// and returns the server (nil when addr is empty). component and labels
// become the run info exposed as koala_run_info and the SSE hello
// event. The plane serves the obs registry and turns it on itself
// (registry only: a monitor does not make the run build spans) when no
// -trace/-metrics flag already did. The bound address is printed so
// wrappers can discover a :0 port.
func StartTelemetry(addr, component string, labels map[string]string) (*telemetry.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := telemetry.Serve(addr)
	if err != nil {
		return nil, err
	}
	// Every component reports which compute kernels served the run (and
	// the CPU features behind the choice) without each main wiring it.
	merged := map[string]string{"kernel": tensor.KernelVariant()}
	if feats := tensor.CPUFeatures(); feats != "" {
		merged["cpu_features"] = feats
	}
	for k, v := range labels {
		merged[k] = v
	}
	telemetry.SetRunInfo(component, merged)
	fmt.Printf("telemetry: listening on http://%s (/metrics /healthz /events /debug/pprof)\n", srv.Addr())
	return srv, nil
}

// HealthFlag registers the standard -health flag. Call ApplyHealth with
// its value after flag.Parse.
func HealthFlag() *string {
	return flag.String("health", "off", "numerical health policy: off | count | error")
}

// ApplyHealth parses the -health flag value and installs the policy.
func ApplyHealth(s string) error {
	p, err := health.ParsePolicy(s)
	if err != nil {
		return err
	}
	health.SetPolicy(p)
	return nil
}

// WriteHealthCounters prints the always-on numerical-health counters to w
// when any of them fired; silent on a clean run.
func WriteHealthCounters(w io.Writer) {
	counters := []struct {
		name string
		n    int64
	}{
		{"nan_detected", health.NaNDetected()},
		{"svd_fallbacks", health.SVDFallbacks()},
		{"gram_fallbacks", health.GramFallbacks()},
		{"nonconverged", health.Nonconverged()},
		{"checkpoint_failures", health.CheckpointFailures()},
	}
	any := false
	for _, c := range counters {
		if c.n != 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "\n-- numerical health --")
	for _, c := range counters {
		if c.n != 0 {
			fmt.Fprintf(w, "health.%s: %d\n", c.name, c.n)
		}
	}
}

// CheckpointConfig carries the shared crash-safe checkpoint flags.
// Construct with CheckpointFlags before flag.Parse.
type CheckpointConfig struct {
	// Path is the -checkpoint flag: the checkpoint file to write (and to
	// resume from with -resume).
	Path *string
	// Every is the -checkpoint-every flag: the interval (in the unit
	// passed to CheckpointFlags) between checkpoint writes.
	Every *int
	// Resume is the -resume flag: continue from Path when it exists, and
	// start fresh when it does not.
	Resume *bool
	// DieAfter is the -die-after flag: exit with code 3 after that many
	// completed units — the crash-injection hook the resume smoke test
	// (make bench-resume) uses.
	DieAfter *int
}

// CheckpointFlags registers the shared -checkpoint, -checkpoint-every,
// -resume and -die-after flags; unit names the checkpoint granularity
// ("steps" for ITE, "rounds" for VQE).
func CheckpointFlags(unit string) *CheckpointConfig {
	return &CheckpointConfig{
		Path:     flag.String("checkpoint", "", "write crash-safe checkpoints to this file"),
		Every:    flag.Int("checkpoint-every", 1, "checkpoint every k "+unit),
		Resume:   flag.Bool("resume", false, "resume from -checkpoint when it exists"),
		DieAfter: flag.Int("die-after", 0, "exit(3) after this many "+unit+" (crash-injection testing)"),
	}
}

// Validate checks flag consistency after flag.Parse.
func (c *CheckpointConfig) Validate() error {
	if (*c.Resume || *c.DieAfter > 0) && *c.Path == "" {
		return fmt.Errorf("-resume and -die-after require -checkpoint")
	}
	return nil
}

// ObsConfig carries the shared observability flags. Zero value is
// inert; construct with ObsFlags before flag.Parse.
type ObsConfig struct {
	trace   *string
	metrics *string
	files   []*os.File
	on      bool
}

// ObsFlags registers the shared -trace and -metrics flags.
func ObsFlags() *ObsConfig {
	return &ObsConfig{
		trace:   flag.String("trace", "", "write a Chrome trace_event JSON file"),
		metrics: flag.String("metrics", "", "write a JSON-lines span/metrics log"),
	}
}

// Setup enables span collection when either flag was given, with the
// phase summary Finish prints beside the file sinks. Call once after
// flag.Parse; returns whether collection is on.
func (c *ObsConfig) Setup() (bool, error) {
	if *c.trace != "" && *c.trace == *c.metrics {
		return false, fmt.Errorf("-trace and -metrics must name different files")
	}
	var sinks []obs.Sink
	if *c.trace != "" {
		f, err := os.Create(*c.trace)
		if err != nil {
			return false, err
		}
		c.files = append(c.files, f)
		sinks = append(sinks, obs.NewChromeTraceSink(f))
	}
	if *c.metrics != "" {
		f, err := os.Create(*c.metrics)
		if err != nil {
			return false, err
		}
		c.files = append(c.files, f)
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	if len(sinks) > 0 {
		obs.Enable(append(sinks, obs.PhaseSummary())...)
		c.on = true
	}
	return c.on, nil
}

// Finish writes the per-phase summary and counters to w (when non-nil),
// flushes the sinks, and closes the output files. No-op when collection
// is off.
func (c *ObsConfig) Finish(w io.Writer) error {
	if !c.on {
		return nil
	}
	// Per-rank machine-model timelines of every grid the run drove land
	// in the sinks next to the span records.
	dist.FlushTimelines()
	if w != nil {
		fmt.Fprintln(w, "\n-- phase breakdown --")
		obs.WriteSummary(w)
		obs.WriteMetrics(w)
	}
	if err := obs.Disable(); err != nil {
		return err
	}
	for _, f := range c.files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
