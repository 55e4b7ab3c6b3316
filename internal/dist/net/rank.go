package distnet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gokoala/internal/dist"
	"gokoala/internal/obs"
	"gokoala/internal/telemetry"
)

// MaybeRankMain turns the current process into a rank endpoint when the
// KOALA_RANK_MODE environment variable is set (the hidden koala-rank
// mode: the driver re-execs its own binary for ranks 1..P-1). It never
// returns in that case — the rank loop runs until the driver sends bye
// or its control connection drops, then the process exits. In a normal
// invocation it is a no-op. Every CLI entry point calls this first,
// before flag parsing, so any koala binary can serve as the rank
// executable.
func MaybeRankMain() {
	if os.Getenv("KOALA_RANK_MODE") == "" {
		return
	}
	if err := rankMain(); err != nil {
		fmt.Fprintf(os.Stderr, "koala-rank: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

type rankEnv struct {
	rank     int
	ranks    int
	network  string
	addr     string // driver (rank 0) listen address
	dir      string // unix socket dir
	token    string
	timeout  time.Duration
	dieAfter int    // KOALA_RANK_DIE_AFTER: exit after N commands (fault injection)
	traceDir string // KOALA_RANK_TRACE_DIR: per-rank JSONL trace capture
	listen   bool   // KOALA_RANK_LISTEN: serve /metrics on 127.0.0.1:0
}

func parseRankEnv() (rankEnv, error) {
	var e rankEnv
	var err error
	if e.rank, err = strconv.Atoi(os.Getenv("KOALA_RANK")); err != nil || e.rank < 1 {
		return e, fmt.Errorf("bad KOALA_RANK %q", os.Getenv("KOALA_RANK"))
	}
	if e.ranks, err = strconv.Atoi(os.Getenv("KOALA_RANK_N")); err != nil || e.ranks <= e.rank {
		return e, fmt.Errorf("bad KOALA_RANK_N %q", os.Getenv("KOALA_RANK_N"))
	}
	e.network = os.Getenv("KOALA_RANK_NET")
	if e.network != "unix" && e.network != "tcp" {
		return e, fmt.Errorf("bad KOALA_RANK_NET %q", e.network)
	}
	e.addr = os.Getenv("KOALA_RANK_ADDR")
	e.dir = os.Getenv("KOALA_RANK_DIR")
	e.token = os.Getenv("KOALA_RANK_TOKEN")
	if e.addr == "" || e.token == "" {
		return e, fmt.Errorf("missing KOALA_RANK_ADDR/KOALA_RANK_TOKEN")
	}
	e.timeout = 30 * time.Second
	if s := os.Getenv("KOALA_RANK_TIMEOUT"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			e.timeout = d
		}
	}
	e.dieAfter = -1
	if s := os.Getenv("KOALA_RANK_DIE_AFTER"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 0 {
			e.dieAfter = v
		}
	}
	e.traceDir = os.Getenv("KOALA_RANK_TRACE_DIR")
	e.listen = os.Getenv("KOALA_RANK_LISTEN") != ""
	return e, nil
}

// rankObs is the child's observability state: the trace sink capturing
// this rank's spans, its telemetry listener, and a flush that is safe
// to run from the SIGTERM path while the command loop is mid-span.
type rankObs struct {
	flushOnce sync.Once
	file      *os.File
	srv       interface{ Close() error }

	mu    sync.Mutex
	stats childStats // per-op measured totals, reported in every pong
}

// setup enables trace capture and the per-rank /metrics listener as the
// driver requested via env. Best-effort by design: a rank that cannot
// open its trace file still serves collectives.
func (ro *rankObs) setup(e rankEnv) {
	ro.stats.PID = os.Getpid()
	if e.traceDir != "" {
		path := filepath.Join(e.traceDir, fmt.Sprintf("rank%d.jsonl", e.rank))
		if f, err := os.Create(path); err == nil {
			ro.file = f
			sink := obs.NewJSONLSink(f)
			sink.SetRank(e.rank)
			obs.Enable(sink)
		} else {
			fmt.Fprintf(os.Stderr, "koala-rank %d: trace capture: %v\n", e.rank, err)
		}
	}
	if e.listen {
		if srv, err := telemetry.Serve("127.0.0.1:0"); err == nil {
			ro.srv = srv
			telemetry.SetRunInfo("rank", map[string]string{
				"rank":  strconv.Itoa(e.rank),
				"ranks": strconv.Itoa(e.ranks),
			})
			if e.traceDir != "" {
				addr := filepath.Join(e.traceDir, fmt.Sprintf("rank%d.addr", e.rank))
				if err := os.WriteFile(addr, []byte(srv.Addr()), 0o666); err != nil {
					fmt.Fprintf(os.Stderr, "koala-rank %d: write addr file: %v\n", e.rank, err)
				}
			}
		} else {
			fmt.Fprintf(os.Stderr, "koala-rank %d: telemetry listen: %v\n", e.rank, err)
		}
	}
}

// flush drains the trace sink (appending the metrics record) and syncs
// the file so the log is complete on disk. Idempotent; called on every
// exit path that is allowed to take time — the graceful bye/EOF return
// and the SIGTERM handler — but not on fault-injected crashes.
func (ro *rankObs) flush() {
	ro.flushOnce.Do(func() {
		obs.Disable()
		if ro.file != nil {
			ro.file.Sync()
			ro.file.Close()
		}
		if ro.srv != nil {
			ro.srv.Close()
		}
	})
}

// handleSignals flushes and exits on SIGTERM/SIGINT: the driver's
// teardown escalation sends SIGTERM before SIGKILL exactly so in-flight
// spans reach the trace file.
func (ro *rankObs) handleSignals() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-ch
		ro.flush()
		os.Exit(0)
	}()
}

// record folds one served collective into the pong-reported stats and
// the local obs/telemetry planes.
func (ro *rankObs) record(op dist.Op, secs float64) {
	ro.mu.Lock()
	if ro.stats.Ops == nil {
		ro.stats.Ops = map[string]dist.OpMeasured{}
	}
	m := ro.stats.Ops[op.String()]
	m.Ops++
	m.Seconds += secs
	ro.stats.Ops[op.String()] = m
	ro.mu.Unlock()
	dist.RecordMeasured(op, secs)
}

// pongBody renders the reply to a sync ping: receive/send timestamps
// followed by the JSON per-op stats.
func (ro *rankObs) pongBody(t2 int64) []byte {
	ro.mu.Lock()
	stats, err := json.Marshal(&ro.stats)
	ro.mu.Unlock()
	if err != nil {
		stats = nil
	}
	body := make([]byte, 16, 16+len(stats))
	binary.LittleEndian.PutUint64(body[0:8], uint64(t2))
	// t3 is stamped immediately before the write, after the (cheap but
	// nonzero) stats marshal, to keep the NTP midpoint honest.
	binary.LittleEndian.PutUint64(body[8:16], uint64(time.Now().UnixNano()))
	return append(body, stats...)
}

func rankMain() error {
	e, err := parseRankEnv()
	if err != nil {
		return err
	}

	// Observability first, so even handshake-phase failures leave a
	// valid (if empty) trace log, and SIGTERM always flushes.
	ro := &rankObs{}
	ro.setup(e)
	defer ro.flush()
	ro.handleSignals()

	// Listen for peers with a higher rank before announcing ourselves,
	// so the driver can hand out an address that already accepts.
	var ln net.Listener
	switch e.network {
	case "unix":
		ln, err = net.Listen("unix", filepath.Join(e.dir, fmt.Sprintf("r%d.sock", e.rank)))
	case "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return fmt.Errorf("rank %d listen: %w", e.rank, err)
	}
	defer ln.Close()

	// Control connection to the driver: hello(token + own address),
	// then the peer address list.
	raw, err := dialRetry(e.network, e.addr, e.timeout)
	if err != nil {
		return fmt.Errorf("rank %d dial driver: %w", e.rank, err)
	}
	control := newConn(raw, e.timeout)
	hello := []byte(e.token + "\n" + ln.Addr().String())
	if err := control.writeFrame(ftHello, 0, uint16(e.rank), 0, hello); err != nil {
		return fmt.Errorf("rank %d hello: %w", e.rank, err)
	}
	pf, err := control.expectFrame(ftPeers, 0)
	if err != nil {
		return fmt.Errorf("rank %d peers: %w", e.rank, err)
	}
	addrs := strings.Split(string(pf.body), "\n")
	if len(addrs) != e.ranks {
		return fmt.Errorf("rank %d: peer list has %d entries, want %d", e.rank, len(addrs), e.ranks)
	}

	// Mesh wiring: dial every lower rank (they listen), accept every
	// higher rank (we listen). Rank 0's link is the control connection.
	conns := make([]*conn, e.ranks)
	conns[0] = control
	type dialRes struct {
		r   int
		c   *conn
		err error
	}
	ch := make(chan dialRes, e.ranks)
	for r := 1; r < e.rank; r++ {
		go func(r int) {
			raw, err := dialRetry(e.network, addrs[r], e.timeout)
			if err != nil {
				ch <- dialRes{r: r, err: err}
				return
			}
			c := newConn(raw, e.timeout)
			if err := c.writeFrame(ftHello, 0, uint16(e.rank), 0, []byte(e.token+"\n-")); err != nil {
				ch <- dialRes{r: r, err: err}
				return
			}
			ch <- dialRes{r: r, c: c}
		}(r)
	}
	go func() {
		for i := e.rank + 1; i < e.ranks; i++ {
			raw, err := ln.Accept()
			if err != nil {
				ch <- dialRes{r: -1, err: err}
				return
			}
			c := newConn(raw, e.timeout)
			f, err := c.expectFrame(ftHello, 0)
			if err != nil {
				ch <- dialRes{r: -1, err: err}
				return
			}
			tok := strings.SplitN(string(f.body), "\n", 2)
			if len(tok) != 2 || tok[0] != e.token {
				ch <- dialRes{r: -1, err: fmt.Errorf("peer hello rejected: bad token")}
				return
			}
			ch <- dialRes{r: int(f.from), c: c}
		}
	}()
	need := e.ranks - 2 // everyone but self and rank 0
	for i := 0; i < need; i++ {
		res := <-ch
		if res.err != nil {
			return fmt.Errorf("rank %d mesh: %w", e.rank, res.err)
		}
		if res.r < 1 || res.r >= e.ranks || conns[res.r] != nil {
			return fmt.Errorf("rank %d mesh: invalid peer rank %d", e.rank, res.r)
		}
		conns[res.r] = res.c
	}

	if err := control.writeFrame(ftReady, 0, uint16(e.rank), 0, nil); err != nil {
		return fmt.Errorf("rank %d ready: %w", e.rank, err)
	}

	n := &node{rank: e.rank, ranks: e.ranks, conns: conns, maxFrame: maxFrameEnv()}

	// Command loop: block (no deadline) on the driver's next frame — the
	// driver may compute for a long time between collectives, and a dead
	// driver surfaces as EOF either way.
	done := 0
	for {
		f, err := control.readFrame(true)
		if err != nil {
			// Driver gone: EOF/reset is normal teardown, exit quietly.
			return nil
		}
		switch f.typ {
		case ftBye:
			return nil
		case ftPing:
			// Clock-sync/heartbeat: t2 is the receipt stamp; pongBody
			// stamps t3 right before the write.
			t2 := time.Now().UnixNano()
			if err := control.writeFrame(ftPong, 0, uint16(e.rank), f.seq, ro.pongBody(t2)); err != nil {
				return fmt.Errorf("rank %d pong: %w", e.rank, err)
			}
		case ftCmd:
			total, err := cmdTotal(f.body)
			if err != nil {
				return fmt.Errorf("rank %d: %w", e.rank, err)
			}
			op := dist.Op(f.op)
			sp := obs.Start(spanCollective)
			sp.SetStr("op", op.String()).SetInt("seq", int64(f.seq)).SetInt("bytes", total)
			start := time.Now()
			runErr := n.run(op, total, f.seq, sp)
			secs := time.Since(start).Seconds()
			sp.SetFloat("measured_s", secs)
			sp.End()
			if runErr != nil {
				msg := fmt.Sprintf("rank %d %v: %v", e.rank, op, runErr)
				control.writeFrame(ftErr, f.op, uint16(e.rank), f.seq, []byte(msg))
				return fmt.Errorf("%s", msg)
			}
			ro.record(op, secs)
			done++
			if e.dieAfter >= 0 && done >= e.dieAfter {
				// Fault injection: die without acking, mid-job — and
				// without flushing, like a real crash.
				os.Exit(3)
			}
			if err := control.writeFrame(ftAck, f.op, uint16(e.rank), f.seq, nil); err != nil {
				return fmt.Errorf("rank %d ack: %w", e.rank, err)
			}
		default:
			return fmt.Errorf("rank %d: unexpected frame type %d", e.rank, f.typ)
		}
	}
}

func maxFrameEnv() int {
	if s := os.Getenv("KOALA_RANK_MAXFRAME"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 4 << 20
}

// dialRetry dials with bounded retry: peers come up asynchronously, so
// early connection refusals are expected and retried until the budget
// runs out.
func dialRetry(network, addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	delay := 2 * time.Millisecond
	for {
		c, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}
