package distnet

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gokoala/internal/dist"
	"gokoala/internal/obs"
	"gokoala/internal/obsfile"
	"gokoala/internal/telemetry"
)

// Options configures a socket transport job.
type Options struct {
	Ranks   int    // total ranks including the driver (rank 0)
	Network string // "unix" (default) or "tcp" (loopback)

	// Dir holds the Unix sockets; defaults to a fresh temp dir that is
	// removed on Close. Ignored for tcp.
	Dir string

	// Exe is the rank binary; defaults to the running executable
	// (children run the hidden koala-rank mode via KOALA_RANK_MODE).
	Exe string

	// TraceDir enables per-rank trace capture: every child rank writes
	// rank<N>.jsonl (an obs JSONL trace log) plus rank<N>.addr (its own
	// /metrics listen address) into this directory, and the driver
	// maintains manifest.json with pids and measured clock offsets so
	// obsfile.MergeDir can fold the logs onto one clock. The directory
	// is created if missing. The driver's own spans are not captured
	// here — route them to TraceDir/rank0.jsonl with an obs.JSONLSink
	// (cliutil.EnableRankTrace does).
	TraceDir string

	ConnectTimeout time.Duration // spawn+handshake budget (default 10s)
	OpTimeout      time.Duration // per-frame I/O deadline in collectives (default 30s)
	MaxFrame       int           // synthetic payload cap per message (default 4 MiB)

	// OnFailure is invoked exactly once, after teardown, with the first
	// transport error. The CLI default prints the error and exits so a
	// dead rank cancels the whole job.
	OnFailure func(error)

	// Stderr receives the children's stderr (default os.Stderr).
	Stderr io.Writer
}

func (o *Options) defaults() error {
	if o.Ranks < 1 {
		return fmt.Errorf("dist/net: ranks must be >= 1, got %d", o.Ranks)
	}
	if o.Ranks > 1<<12 {
		return fmt.Errorf("dist/net: ranks %d beyond sane process budget", o.Ranks)
	}
	switch o.Network {
	case "":
		o.Network = "unix"
	case "unix", "tcp":
	default:
		return fmt.Errorf("dist/net: unknown network %q (want unix or tcp)", o.Network)
	}
	if o.Exe == "" {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("dist/net: resolve executable: %w", err)
		}
		o.Exe = exe
	}
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 10 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = 4 << 20
	}
	return nil
}

// Transport implements dist.Transport over real rank processes. One
// collective runs at a time (Run serializes, like operations on an MPI
// communicator); the first error permanently fails the transport,
// tears the job down, and fires Options.OnFailure.
type Transport struct {
	o     Options
	n     *node
	ln    net.Listener
	dir   string // temp socket dir we created (removed on Close)
	token string

	procs  []*exec.Cmd     // index 1..Ranks-1; [0] nil
	exited []chan struct{} // closed by a rank's monitor once reaped

	mu       sync.Mutex
	seq      uint32
	pingSeq  uint32
	err      error
	closing  bool
	dead     map[int]error // rank -> exit cause, recorded by monitors
	stop     chan struct{} // closed in teardown; ends the heartbeat loop
	opStats  [dist.NumOps]opAgg
	rankInfo []rankInfo // index by rank; [0] unused
	wg       sync.WaitGroup
}

// opAgg accumulates the driver-side measured wall clock of one op.
type opAgg struct {
	n    int64
	secs float64
}

// rankInfo is the driver's latest knowledge of one child rank, refreshed
// by every sync/heartbeat pong.
type rankInfo struct {
	pid      int
	offsetNS int64 // child wall clock minus driver wall clock
	rttNS    int64 // round trip of the sample offsetNS came from
	stats    childStats
}

// childStats is the per-op measured summary a child rank reports in
// every pong body (JSON after the two timestamps).
type childStats struct {
	PID int                        `json:"pid"`
	Ops map[string]dist.OpMeasured `json:"ops,omitempty"`
}

// Sync/heartbeat tuning: the initial clock sync takes the best of
// syncPings round trips per rank; the heartbeat loop re-pings every
// alive rank each heartbeatPeriod (skipping ticks while a collective
// holds the transport). Pings use their own short deadline so a hung
// rank cannot stall the driver for a full OpTimeout.
const (
	syncPings       = 8
	heartbeatPeriod = 1 * time.Second
	pingTimeout     = 2 * time.Second
)

var _ dist.Transport = (*Transport)(nil)

// Start launches ranks 1..Ranks-1 as koala-rank child processes of the
// given binary, builds the fully connected mesh, and returns once every
// rank reported ready. Ranks==1 degenerates to a no-process transport
// whose Run is an immediate no-op (the grid never realizes collectives
// at P<=1 anyway).
func Start(o Options) (*Transport, error) {
	if err := o.defaults(); err != nil {
		return nil, err
	}
	t := &Transport{o: o, dead: make(map[int]error)}
	if o.Ranks == 1 {
		t.n = &node{rank: 0, ranks: 1, maxFrame: o.MaxFrame}
		return t, nil
	}
	if err := t.start(); err != nil {
		t.teardown()
		return nil, fmt.Errorf("dist/net: start: %w", err)
	}
	return t, nil
}

func (t *Transport) start() error {
	tok := make([]byte, 16)
	if _, err := rand.Read(tok); err != nil {
		return err
	}
	t.token = hex.EncodeToString(tok)

	// Driver listener: children dial it for their control connection.
	var err error
	switch t.o.Network {
	case "unix":
		dir := t.o.Dir
		if dir == "" {
			dir, err = os.MkdirTemp("", "koala-dist-")
			if err != nil {
				return err
			}
			t.dir = dir
		}
		t.ln, err = net.Listen("unix", filepath.Join(dir, "r0.sock"))
	case "tcp":
		t.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return err
	}

	stderr := t.o.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	sockDir := t.o.Dir
	if sockDir == "" {
		sockDir = t.dir
	}
	if t.o.TraceDir != "" {
		if err := os.MkdirAll(t.o.TraceDir, 0o777); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
	}
	t.procs = make([]*exec.Cmd, t.o.Ranks)
	t.exited = make([]chan struct{}, t.o.Ranks)
	t.rankInfo = make([]rankInfo, t.o.Ranks)
	for r := 1; r < t.o.Ranks; r++ {
		cmd := exec.Command(t.o.Exe)
		cmd.Env = append(os.Environ(),
			"KOALA_RANK_MODE=1",
			"KOALA_RANK="+strconv.Itoa(r),
			"KOALA_RANK_N="+strconv.Itoa(t.o.Ranks),
			"KOALA_RANK_NET="+t.o.Network,
			"KOALA_RANK_ADDR="+t.ln.Addr().String(),
			"KOALA_RANK_DIR="+sockDir,
			"KOALA_RANK_TOKEN="+t.token,
			"KOALA_RANK_TIMEOUT="+t.o.OpTimeout.String(),
			"KOALA_RANK_MAXFRAME="+strconv.Itoa(t.o.MaxFrame),
		)
		if t.o.TraceDir != "" {
			// Absolute so the children agree on the directory regardless
			// of their working directory.
			abs, err := filepath.Abs(t.o.TraceDir)
			if err != nil {
				abs = t.o.TraceDir
			}
			cmd.Env = append(cmd.Env,
				"KOALA_RANK_TRACE_DIR="+abs,
				"KOALA_RANK_LISTEN=1",
			)
		}
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn rank %d: %w", r, err)
		}
		t.procs[r] = cmd
		t.rankInfo[r].pid = cmd.Process.Pid
		t.exited[r] = make(chan struct{})
		t.wg.Add(1)
		go t.monitor(r)
	}

	// Accept one control connection per child; hello carries the rank,
	// the shared-secret token, and the child's own listen address.
	conns := make([]*conn, t.o.Ranks)
	addrs := make([]string, t.o.Ranks)
	deadline := time.Now().Add(t.o.ConnectTimeout)
	for i := 1; i < t.o.Ranks; i++ {
		setAcceptDeadline(t.ln, deadline)
		raw, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("accept rank handshake: %w (%v)", err, t.deadSummary())
		}
		c := newConn(raw, t.o.OpTimeout)
		f, err := c.expectFrame(ftHello, 0)
		if err != nil {
			return fmt.Errorf("rank hello: %w", err)
		}
		tokAddr := strings.SplitN(string(f.body), "\n", 2)
		if len(tokAddr) != 2 || tokAddr[0] != t.token {
			raw.Close()
			return fmt.Errorf("rank %d hello rejected: bad token", f.from)
		}
		r := int(f.from)
		if r < 1 || r >= t.o.Ranks || conns[r] != nil {
			raw.Close()
			return fmt.Errorf("rank hello with invalid rank %d", r)
		}
		conns[r] = c
		addrs[r] = tokAddr[1]
	}

	// Tell every child where its peers listen, then wait for each to
	// finish its own mesh wiring and report ready.
	peers := []byte(strings.Join(addrs, "\n"))
	for r := 1; r < t.o.Ranks; r++ {
		if err := conns[r].writeFrame(ftPeers, 0, 0, 0, peers); err != nil {
			return fmt.Errorf("send peers to rank %d: %w", r, err)
		}
	}
	for r := 1; r < t.o.Ranks; r++ {
		if _, err := conns[r].expectFrame(ftReady, 0); err != nil {
			return fmt.Errorf("rank %d ready: %w", r, err)
		}
	}

	t.mu.Lock()
	t.n = &node{rank: 0, ranks: t.o.Ranks, conns: conns, maxFrame: t.o.MaxFrame}
	// Initial clock sync: best-of-N ping per rank estimates each child's
	// wall-clock offset before the first collective, registers the rank
	// as alive, and seeds the telemetry series.
	for r := 1; r < t.o.Ranks; r++ {
		if err := t.syncRankLocked(r, syncPings); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("clock sync rank %d: %w", r, err)
		}
	}
	t.writeManifestLocked()
	t.stop = make(chan struct{})
	t.wg.Add(1)
	go t.heartbeatLoop(t.stop)
	t.mu.Unlock()
	return nil
}

// syncRankLocked pings rank r n times and keeps the minimum-delay
// sample's offset estimate (the NTP rule: the shortest round trip has
// the least queueing asymmetry, and its half-width bounds the residual
// error). Called with t.mu held.
func (t *Transport) syncRankLocked(r, n int) error {
	best := rankInfo{pid: t.rankInfo[r].pid, rttNS: 1<<63 - 1}
	for i := 0; i < n; i++ {
		off, rtt, st, err := t.pingLocked(r)
		if err != nil {
			return err
		}
		best.stats = st
		if rtt < best.rttNS {
			best.offsetNS, best.rttNS = off, rtt
		}
	}
	t.rankInfo[r] = best
	t.noteRankLocked(r)
	return nil
}

// pingLocked runs one ping/pong round trip with rank r and returns the
// offset estimate (child clock minus driver clock), the round-trip
// delay, and the child's per-op measured stats. Called with t.mu held;
// the child is idle in its command loop whenever the mutex is free, so
// the reply is immediate.
func (t *Transport) pingLocked(r int) (offsetNS, rttNS int64, st childStats, err error) {
	t.pingSeq++
	seq := t.pingSeq
	c := t.n.conns[r]
	var body [8]byte
	t1 := time.Now().UnixNano()
	binary.LittleEndian.PutUint64(body[:], uint64(t1))
	if err = c.writeFrame(ftPing, 0, 0, seq, body[:]); err != nil {
		return 0, 0, st, fmt.Errorf("ping rank %d: %w", r, err)
	}
	f, err := c.readFrameWithin(pingTimeout)
	t4 := time.Now().UnixNano()
	if err != nil {
		return 0, 0, st, fmt.Errorf("pong rank %d: %w", r, err)
	}
	if f.typ != ftPong || f.seq != seq || len(f.body) < 16 {
		return 0, 0, st, fmt.Errorf("pong rank %d: bad reply (type %d seq %d)", r, f.typ, f.seq)
	}
	t2 := int64(binary.LittleEndian.Uint64(f.body[0:8]))
	t3 := int64(binary.LittleEndian.Uint64(f.body[8:16]))
	if len(f.body) > 16 {
		if jerr := json.Unmarshal(f.body[16:], &st); jerr != nil {
			return 0, 0, st, fmt.Errorf("pong rank %d stats: %w", r, jerr)
		}
	}
	offsetNS = ((t2 - t1) + (t3 - t4)) / 2
	rttNS = (t4 - t1) - (t3 - t2)
	return offsetNS, rttNS, st, nil
}

// noteRankLocked publishes rank r's freshly observed state: liveness
// heartbeat plus the rank-labeled telemetry series federated into the
// driver's /metrics.
func (t *Transport) noteRankLocked(r int) {
	telemetry.RankHeartbeat(r)
	ri := t.rankInfo[r]
	lbl := obs.Label{Key: "rank", Value: strconv.Itoa(r)}
	obs.Observe("dist_rank_up", 1, lbl)
	obs.Observe("dist_rank_clock_offset_ns", float64(ri.offsetNS), lbl)
	obs.Observe("dist_rank_rtt_ns", float64(ri.rttNS), lbl)
	var ops int64
	var secs float64
	for _, m := range ri.stats.Ops {
		ops += m.Ops
		secs += m.Seconds
	}
	obs.Observe("dist_rank_measured_ops", float64(ops), lbl)
	obs.Observe("dist_rank_measured_comm_seconds", secs, lbl)
}

// heartbeatLoop re-pings every alive rank each period, refreshing clock
// offsets, liveness, and the federated per-rank series. A tick is
// skipped when a collective holds the transport (the children are busy
// in that exact case, and Run's acks already prove liveness). A ping
// failure on an idle transport is a real protocol breakdown and fails
// the job like any collective error.
func (t *Transport) heartbeatLoop(stop <-chan struct{}) {
	defer t.wg.Done()
	tick := time.NewTicker(heartbeatPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if !t.mu.TryLock() {
			continue
		}
		if t.closing || t.err != nil {
			t.mu.Unlock()
			return
		}
		for r := 1; r < t.o.Ranks; r++ {
			if _, dead := t.dead[r]; dead {
				continue
			}
			off, rtt, st, err := t.pingLocked(r)
			if err != nil {
				t.failLocked(fmt.Errorf("heartbeat: %w", err))
				t.mu.Unlock()
				return
			}
			t.rankInfo[r].offsetNS, t.rankInfo[r].rttNS, t.rankInfo[r].stats = off, rtt, st
			t.noteRankLocked(r)
		}
		t.mu.Unlock()
	}
}

// writeManifestLocked (re)writes TraceDir/manifest.json: the rank
// roster, pids, trace file names, and the latest clock offsets — the
// input obsfile.MergeDir aligns the logs with. Best-effort: capture
// must never fail the job. Called with t.mu held.
func (t *Transport) writeManifestLocked() {
	if t.o.TraceDir == "" || t.o.Ranks == 1 {
		return
	}
	m := obsfile.Manifest{
		Ranks:     t.o.Ranks,
		Network:   t.o.Network,
		DriverPID: os.Getpid(),
	}
	m.RankInfo = append(m.RankInfo, obsfile.ManifestRank{
		Rank: 0, PID: os.Getpid(), File: "rank0.jsonl",
	})
	for r := 1; r < t.o.Ranks; r++ {
		ri := t.rankInfo[r]
		m.RankInfo = append(m.RankInfo, obsfile.ManifestRank{
			Rank: r, PID: ri.pid,
			File:          fmt.Sprintf("rank%d.jsonl", r),
			ClockOffsetNS: ri.offsetNS,
			RTTNS:         ri.rttNS,
		})
	}
	if err := obsfile.WriteManifest(t.o.TraceDir, m); err != nil {
		fmt.Fprintf(os.Stderr, "dist/net: write trace manifest: %v\n", err)
	}
}

func setAcceptDeadline(ln net.Listener, d time.Time) {
	type deadliner interface{ SetDeadline(time.Time) error }
	if dl, ok := ln.(deadliner); ok {
		dl.SetDeadline(d)
	}
}

// monitor reaps one child (started at spawn time, so no child is ever
// left a zombie). An exit before Close is a transport failure: the
// cause is recorded for error attribution and the rank's connection is
// closed so any collective blocked on it fails immediately.
func (t *Transport) monitor(r int) {
	defer t.wg.Done()
	err := t.procs[r].Wait()
	close(t.exited[r])
	t.mu.Lock()
	closing := t.closing
	if !closing {
		if err == nil {
			err = errors.New("exited before job end")
		}
		t.dead[r] = err
		if t.n != nil && t.n.conns != nil && t.n.conns[r] != nil {
			t.n.conns[r].Close()
		}
	}
	t.mu.Unlock()
	if !closing {
		telemetry.MarkRankDead(r, fmt.Sprintf("rank %d died: %v", r, err))
		obs.Observe("dist_rank_up", 0, obs.Label{Key: "rank", Value: strconv.Itoa(r)})
		// Surface the failure even if the driver is between collectives.
		t.fail(fmt.Errorf("rank %d died: %v", r, err))
	}
}

func (t *Transport) Name() string { return "net/" + t.o.Network }
func (t *Transport) Ranks() int   { return t.o.Ranks }

// Run executes one collective across all ranks and returns its measured
// wall-clock seconds (command fan-out through last acknowledgement).
func (t *Transport) Run(op dist.Op, totalBytes int64) (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0, t.err
	}
	if t.closing {
		return 0, errors.New("dist/net: transport closed")
	}
	if t.o.Ranks == 1 {
		return 0, nil
	}
	t.seq++
	seq := t.seq
	sp := obs.Start(spanCollective)
	sp.SetStr("op", op.String()).SetInt("seq", int64(seq)).SetInt("bytes", totalBytes)
	start := time.Now()
	for r := 1; r < t.o.Ranks; r++ {
		if err := t.n.conns[r].writeFrame(ftCmd, byte(op), 0, seq, cmdBody(totalBytes)); err != nil {
			sp.End()
			return 0, t.failLocked(fmt.Errorf("command rank %d: %w", r, err))
		}
	}
	if err := t.n.run(op, totalBytes, seq, sp); err != nil {
		sp.End()
		return 0, t.failLocked(fmt.Errorf("%v: %w", op, err))
	}
	for r := 1; r < t.o.Ranks; r++ {
		if _, err := t.n.conns[r].expectFrame(ftAck, seq); err != nil {
			sp.End()
			return 0, t.failLocked(fmt.Errorf("%v ack from rank %d: %w", op, r, err))
		}
		// Every ack proves the rank alive; keep the liveness rollup warm
		// between heartbeat ticks (which skip while Run holds the mutex).
		telemetry.RankHeartbeat(r)
	}
	secs := time.Since(start).Seconds()
	sp.SetFloat("measured_s", secs)
	sp.End()
	t.opStats[op].n++
	t.opStats[op].secs += secs
	return secs, nil
}

// RankStats implements dist.RankStatser: rank 0 is the driver's per-op
// collective wall clock (fan-out to last ack); child rows carry each
// rank's local measured totals plus its latest clock offset. On a
// healthy open transport the child rows are refreshed with a fresh ping
// sweep so a caller at end-of-suite sees final, not second-old, totals.
func (t *Transport) RankStats() []dist.RankStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	driver := dist.RankStat{Rank: 0, PID: os.Getpid(), Ops: map[string]dist.OpMeasured{}}
	for op := dist.Op(0); op < dist.NumOps; op++ {
		if a := t.opStats[op]; a.n > 0 {
			driver.Ops[op.String()] = dist.OpMeasured{Ops: a.n, Seconds: a.secs}
			driver.MeasuredOps += a.n
			driver.MeasuredCommSeconds += a.secs
		}
	}
	if len(driver.Ops) == 0 {
		driver.Ops = nil
	}
	out := []dist.RankStat{driver}
	for r := 1; r < t.o.Ranks; r++ {
		_, dead := t.dead[r]
		if t.n != nil && t.err == nil && !t.closing && !dead {
			if off, rtt, st, err := t.pingLocked(r); err == nil {
				t.rankInfo[r].offsetNS, t.rankInfo[r].rttNS, t.rankInfo[r].stats = off, rtt, st
				t.noteRankLocked(r)
			}
		}
		ri := t.rankInfo[r]
		rs := dist.RankStat{
			Rank: r, PID: ri.pid,
			ClockOffsetNS: ri.offsetNS, RTTNS: ri.rttNS,
			Ops: ri.stats.Ops,
		}
		for _, m := range ri.stats.Ops {
			rs.MeasuredOps += m.Ops
			rs.MeasuredCommSeconds += m.Seconds
		}
		out = append(out, rs)
	}
	return out
}

// fail records err as the sticky transport error (unless one is already
// set), tears the job down, and fires OnFailure once.
func (t *Transport) fail(err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failLocked(err)
}

func (t *Transport) failLocked(err error) error {
	if t.err != nil {
		return t.err
	}
	if t.closing {
		return err
	}
	// Attribute to a recorded child death when one explains the I/O error.
	if len(t.dead) > 0 {
		err = fmt.Errorf("%w (%s)", err, t.deadSummary())
	}
	t.err = fmt.Errorf("dist/net: %w", err)
	t.teardownLocked()
	if t.o.OnFailure != nil {
		go t.o.OnFailure(t.err)
	}
	return t.err
}

func (t *Transport) deadSummary() string {
	if len(t.dead) == 0 {
		return "no ranks reported dead"
	}
	parts := make([]string, 0, len(t.dead))
	for r, e := range t.dead {
		parts = append(parts, fmt.Sprintf("rank %d: %v", r, e))
	}
	return strings.Join(parts, "; ")
}

// Close tears the job down: children get a bye frame (they exit on it,
// or on the control-connection EOF that follows), stragglers are
// killed, and the socket dir is removed. No orphans survive Close.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closing = true
	// Final manifest with the freshest clock offsets before the children
	// flush and exit on bye.
	t.writeManifestLocked()
	if t.n != nil && t.n.conns != nil {
		for r := 1; r < t.o.Ranks; r++ {
			if c := t.n.conns[r]; c != nil {
				c.writeFrame(ftBye, 0, 0, 0, nil)
			}
		}
	}
	t.teardownLocked()
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// teardown outside a held lock (start-path cleanup).
func (t *Transport) teardown() {
	t.mu.Lock()
	t.closing = true
	t.teardownLocked()
	t.mu.Unlock()
	t.wg.Wait()
}

// teardownLocked closes the mesh and reaps every child, escalating to
// SIGTERM and then SIGKILL after grace periods. Called with t.mu held;
// marks closing so monitors treat subsequent exits as expected.
func (t *Transport) teardownLocked() {
	t.closing = true
	if t.stop != nil {
		close(t.stop)
		t.stop = nil
	}
	if t.ln != nil {
		t.ln.Close()
		t.ln = nil
	}
	if t.n != nil && t.n.conns != nil {
		for _, c := range t.n.conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for r, cmd := range t.procs {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		if _, dead := t.dead[r]; dead {
			continue
		}
		// Children exit on bye/EOF; give each a grace period. A child
		// that misses it gets SIGTERM first — its signal handler flushes
		// the trace/telemetry sinks so a slow rank still leaves a
		// parseable log — and SIGKILL only if it ignores that too.
		go func(cmd *exec.Cmd, exited <-chan struct{}) {
			select {
			case <-exited:
			case <-time.After(2 * time.Second):
				cmd.Process.Signal(syscall.SIGTERM)
				select {
				case <-exited:
				case <-time.After(2 * time.Second):
					cmd.Process.Kill()
				}
			}
		}(cmd, t.exited[r])
	}
	if t.dir != "" {
		dir := t.dir
		t.dir = ""
		// Remove once the children (whose sockets live there) are gone.
		go func() {
			t.wg.Wait()
			os.RemoveAll(dir)
		}()
	}
}
