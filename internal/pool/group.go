package pool

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gokoala/internal/obs"
)

// Lattice-level task groups. The worker pool's For/ForMax primitives
// parallelize a single kernel; Group parallelizes the layer above it —
// independent lattice tasks such as the two boundary-MPS sweeps of a
// cached expectation, the per-term strip contractions, or the gates of
// one checkerboard wave. Each task is a full algorithm step that runs
// kernels of its own, so groups and kernels share one hierarchical
// parallelism budget:
//
//   - A group task claims one worker token before it gets a goroutine of
//     its own; with no token free it runs inline on the submitting
//     goroutine (never blocking, so nested groups cannot deadlock).
//     Tokens bound the lattice-level goroutine count by the pool size.
//   - While lattice tasks are active, kernel-level splits (ForMax) see a
//     reduced worker share — Size()/activeTasks — so the product of
//     lattice-level and kernel-level parallelism stays at the pool size
//     instead of oversubscribing GOMAXPROCS.
//
// Determinism contract: a Group never reorders results by itself — tasks
// write to caller-indexed slots and callers reduce in fixed order — so
// lattice algorithms driven through groups produce bit-identical results
// for any worker count, provided each task draws its randomness from a
// task-private source (see einsumsvd.Fork).

// Scheduler observability: tasks handed their own goroutine, tasks run
// inline because every worker token was taken (token contention), the
// total task count (deterministic: it depends only on the submitted
// work, never on worker count — the regression gate and koala-obs diff
// rely on that), and coordinator seconds spent waiting for group
// completion (idle time).
var (
	obsGroupTasks  = obs.NewCounter("pool.group.tasks")
	obsGroupInline = obs.NewCounter("pool.group.inline")
	obsTaskCount   = obs.NewCounter("pool.task.count")
	obsGroupWait   = obs.NewFloatCounter("pool.group.wait_seconds")
)

// latticeActive counts group tasks currently executing (goroutine or
// inline). ForMax divides the kernel worker share by it.
var latticeActive atomic.Int64

// tokenMu guards the worker-token slots. Tokens bound how many group
// tasks hold a private goroutine at once; the bound tracks Size() at
// acquisition time, so SetWorkers takes effect for new tasks
// immediately. Tokens are slot-indexed (lowest free slot wins) so task
// spans can name the lattice-level worker lane they ran on.
var (
	tokenMu    sync.Mutex
	tokenSlots []bool // true = slot in use; len grows to Size() on demand
	tokenCount int
)

// tryToken claims the lowest free worker-token slot, returning the slot
// index, or -1 when all Size() tokens are taken.
func tryToken() int {
	tokenMu.Lock()
	defer tokenMu.Unlock()
	n := Size()
	if tokenCount >= n {
		return -1
	}
	for len(tokenSlots) < n {
		tokenSlots = append(tokenSlots, false)
	}
	for i := 0; i < n; i++ {
		if !tokenSlots[i] {
			tokenSlots[i] = true
			tokenCount++
			return i
		}
	}
	return -1
}

func releaseToken(slot int) {
	tokenMu.Lock()
	tokenSlots[slot] = false
	tokenCount--
	tokenMu.Unlock()
}

// TokensInUse reports how many lattice tasks currently hold a worker
// token; exposed for tests and scheduler diagnostics.
func TokensInUse() int {
	tokenMu.Lock()
	defer tokenMu.Unlock()
	return tokenCount
}

// Group is a structured set of lattice-level tasks: spawn with Go, then
// Wait for all of them. The zero value is not usable; construct with
// NewGroup. A Group must not be reused after Wait returns.
type Group struct {
	name      string
	sp        *obs.Span
	nextTask  atomic.Int64
	wg        sync.WaitGroup
	panicOnce sync.Once
	panicked  any
}

// NewGroup opens a task group under the caller's span (nil = the trace
// root). The name labels the group's obs span (one span per group,
// covering spawn to Wait) and the task spans hung under it.
func NewGroup(parent *obs.Span, name string) *Group {
	return &Group{name: name, sp: parent.StartChild("pool.group").SetStr("name", name)}
}

// Go submits one task; the body receives its task span, the handle
// everything it runs starts its own spans from (nil while untraced). If a worker token is free the task runs on its
// own goroutine; otherwise it runs inline on the caller before Go
// returns, which keeps nested groups deadlock-free and guarantees
// forward progress under full load. Bodies of one group must write to
// disjoint locations; a panic in any body is re-raised by Wait.
func (g *Group) Go(body func(task *obs.Span)) {
	submitted := time.Now()
	if slot := tryToken(); slot >= 0 {
		obsGroupTasks.Add(1)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer releaseToken(slot)
			g.run(body, slot, submitted)
		}()
		return
	}
	obsGroupInline.Add(1)
	g.run(body, -1, submitted)
}

// TaskPanic is the panic value Wait re-raises when a task body panicked:
// the original value plus the stack of the panicking task's goroutine,
// which the recover in the task runner would otherwise discard (Wait
// re-panics on the coordinator goroutine, whose stack says nothing about
// where the task failed).
type TaskPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("pool: task panicked: %v\n\ntask stack:\n%s", p.Value, p.Stack)
}

func (p *TaskPanic) String() string { return p.Error() }

// Unwrap exposes the original panic value when it was an error.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// run executes one task body with lattice-task accounting and panic
// capture (first panic wins; Wait re-raises it wrapped in *TaskPanic
// with the task goroutine's stack). The recover sits in its own defer so
// the lattice-active decrement — and, on the goroutine path in Go, the
// worker-token release — always run, keeping a panicking task from
// starving later groups of tokens or kernel shares.
//
// Each task gets a span parented under the group span — from any
// goroutine, via the explicit StartChild handle — carrying the group
// name, the task index within the group, the worker slot it ran on
// (-1 = inline on the submitter), and the queue wait between submission
// and execution start. The body is handed that span.
func (g *Group) run(body func(task *obs.Span), slot int, submitted time.Time) {
	latticeActive.Add(1)
	defer latticeActive.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(*TaskPanic)
			if !ok {
				tp = &TaskPanic{Value: r, Stack: debug.Stack()}
			}
			g.panicOnce.Do(func() { g.panicked = tp })
		}
	}()
	obsTaskCount.Add(1)
	sp := g.sp.StartChild("pool.task")
	if sp != nil {
		sp.SetStr("group", g.name).
			SetInt("task", g.nextTask.Add(1)-1).
			SetInt("worker", int64(slot)).
			SetFloat("queue_wait_s", time.Since(submitted).Seconds())
		if slot >= 0 {
			sp.SetTrack(slot + 1)
		}
		defer sp.End()
	}
	body(sp)
}

// Wait blocks until every submitted task has finished, then re-raises
// the first task panic, if any.
func (g *Group) Wait() {
	start := time.Now()
	g.wg.Wait()
	obsGroupWait.Add(time.Since(start).Seconds())
	g.sp.End()
	if g.panicked != nil {
		panic(g.panicked)
	}
}

// Tasks runs body(0..n-1) as one task group under parent and waits for
// completion, handing each body its task span. The convenience form of
// NewGroup/Go/Wait for index-shaped fan-out (per-site merges, per-column
// preparation).
func Tasks(parent *obs.Span, name string, n int, body func(i int, task *obs.Span)) {
	g := NewGroup(parent, name)
	for i := 0; i < n; i++ {
		i := i
		g.Go(func(task *obs.Span) { body(i, task) })
	}
	g.Wait()
}
