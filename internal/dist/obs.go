package dist

import (
	"gokoala/internal/obs"
)

// Bridge from the grid's alpha-beta-gamma accounting into the obs
// metrics layer: every metered collective and flop credit also advances
// the global dist.* counters (no-ops while obs is disabled), and
// TraceRegion turns a Stats delta into span annotations so modeled
// seconds appear next to measured seconds in traces and phase summaries.
//
// Every dist.* counter is deterministic: a function of the machine model
// and the metered operation counts (obsfile.DeterministicMetric).
var (
	obsCommMsgs  = obs.NewCounter("dist.comm.msgs")
	obsCommBytes = obs.NewCounter("dist.comm.bytes")
	obsRedists   = obs.NewCounter("dist.redistributions")
	obsCommSecs  = obs.NewFloatCounter("dist.modeled.comm_seconds")
	obsCompSecs  = obs.NewFloatCounter("dist.modeled.comp_seconds")

	// Per-op modeled seconds, indexed by Op; the names feed the
	// collectives table of koala-obs report.
	obsModeledOp [NumOps]*obs.FloatCounter
)

func init() {
	for op := Op(0); op < NumOps; op++ {
		obsModeledOp[op] = obs.NewFloatCounter("dist.modeled." + op.String() + "_seconds")
	}
}

// observeComm mirrors one addComm call into the obs counters. Called
// with the grid mutex held so the published samples advance in the same
// order as the grid counters they describe (see addComm).
func observeComm(op Op, msgs, bytes int64, secs float64, redists int64) {
	if !obs.Enabled() {
		return
	}
	obsCommMsgs.Add(msgs)
	obsCommBytes.Add(bytes)
	obsCommSecs.Add(secs)
	obsModeledOp[op].Add(secs)
	if redists != 0 {
		obsRedists.Add(redists)
	}
}

// observeComp mirrors modeled compute seconds into the obs counters.
func observeComp(secs float64) {
	if !obs.Enabled() {
		return
	}
	obsCompSecs.Add(secs)
}

// AnnotateSpan attaches the Stats delta since before to the span: the
// modeled wall seconds, their communication/computation split, and the
// message/byte counts of the region.
func (g *Grid) AnnotateSpan(sp *obs.Span, before Stats) {
	if sp == nil {
		return
	}
	d := g.Snapshot().Sub(before)
	sp.SetFloat("modeled_s", d.ModeledSeconds())
	sp.SetFloat("modeled_comm_s", d.CommSeconds())
	sp.SetFloat("modeled_comp_s", d.CompSeconds)
	sp.SetInt("comm_bytes", d.Bytes)
	sp.SetInt("comm_msgs", d.Msgs)
	sp.SetInt("redistributions", d.Redistributions)
}

// TraceRegion runs f inside a span named name, annotated with the grid's
// machine-model delta for the region. While no span sink is installed it
// just calls f.
func (g *Grid) TraceRegion(name string, f func()) {
	sp := obs.Start(name)
	if sp == nil {
		f()
		return
	}
	before := g.Snapshot()
	f()
	g.AnnotateSpan(sp, before)
	sp.End()
}
