// Package pool provides the process-wide pool of persistent worker
// goroutines the compute kernels run on. A fixed set of workers is
// started on first use and fed through a buffered work channel, so hot
// paths (batched GEMM partitions, blocked transposes, Jacobi rotation
// rounds) never pay per-call goroutine spawning.
//
// The unit of work is a half-open index range: For splits [0, n) into
// disjoint chunks and runs the body once per chunk, one chunk on the
// calling goroutine and the rest on the workers. Because chunks are
// disjoint, bodies may write to shared output slices without locking.
//
// Bodies must not call back into the pool: nested For calls execute
// inline on the submitting goroutine, which is correct but serial.
package pool

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gokoala/internal/obs"
)

// Dispatch observability: chunks handed to workers versus chunks the
// submitting goroutine ran because the queue was full, plus worker-side
// queue-wait seconds (submission to execution start; wall-clock, so
// never diffed or gated).
var (
	obsPoolTasks     = obs.NewCounter("pool.tasks")
	obsPoolInline    = obs.NewCounter("pool.inline")
	obsPoolQueueWait = obs.NewFloatCounter("pool.queue_wait_seconds")
)

type task struct {
	body   func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
	// sp is the submitting call's dispatch span; workers hang their
	// per-chunk spans under it. nil while tracing is off.
	sp *obs.Span
	// submitted is the dispatch timestamp for queue-wait attribution;
	// zero while tracing is off.
	submitted time.Time
}

var (
	mu    sync.Mutex
	size  int       // worker count of the running pool; 0 = not started
	queue chan task // nil until the pool starts
)

// queueDepth is the per-worker submission buffer; submissions beyond it
// run inline on the caller instead of blocking.
const queueDepth = 8

// envWorkers reads the KOALA_WORKERS environment variable once; a
// positive integer overrides the GOMAXPROCS default pool size (the
// tuning knob of long-running services and benchmark sweeps — see the
// README tuning notes). SetWorkers still takes precedence. An invalid
// or non-positive value is rejected with a one-line warning instead of
// silently poisoning the worker budget.
var envWorkers = sync.OnceValue(func() int {
	n, bad := ParseWorkers(os.Getenv("KOALA_WORKERS"))
	if bad != "" {
		fmt.Fprintf(os.Stderr, "koala: ignoring KOALA_WORKERS=%s: %s; using default (%d workers)\n",
			os.Getenv("KOALA_WORKERS"), bad, runtime.GOMAXPROCS(0))
	}
	return n
})

// ParseWorkers validates a worker-count setting. It returns the count
// (0 meaning "unset, use the default") and, when the value is present
// but unusable, a short reason for the caller's warning line. Shared by
// the KOALA_WORKERS path here and the -workers flag path in cliutil so
// both reject garbage the same way.
func ParseWorkers(s string) (n int, bad string) {
	if s == "" {
		return 0, ""
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, "not an integer"
	}
	if v <= 0 {
		return 0, "must be positive"
	}
	return v, ""
}

// defaultSize is the pool size used when SetWorkers has not been called:
// KOALA_WORKERS when set, GOMAXPROCS otherwise.
func defaultSize() int {
	if n := envWorkers(); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Size returns the worker count parallel kernels should split work for:
// the running pool's size, or the default (KOALA_WORKERS / GOMAXPROCS)
// if the pool has not started.
func Size() int {
	mu.Lock()
	defer mu.Unlock()
	if size > 0 {
		return size
	}
	return defaultSize()
}

// kernelShare is the chunk budget of one kernel-level split: the full
// pool normally, or the pool divided by the number of active lattice
// tasks, so nested kernel parallelism under a task group never
// oversubscribes the pool (the hierarchical budget of the lattice
// scheduler; see group.go). Chunk counts only partition disjoint output
// ranges, so this adaptivity never changes numerical results.
func kernelShare() int {
	n := Size()
	if a := latticeActive.Load(); a > 1 {
		n /= int(a)
		if n < 1 {
			n = 1
		}
	}
	return n
}

// SetWorkers resizes the pool to n workers (n <= 0 restores the
// KOALA_WORKERS / GOMAXPROCS default). Already-submitted work completes
// on the old workers. Intended for tests and for tuning long-running
// services; kernels cap their own parallelism per call via the max
// argument of ForMax instead.
func SetWorkers(n int) {
	if n <= 0 {
		n = defaultSize()
	}
	mu.Lock()
	defer mu.Unlock()
	if size == n {
		return
	}
	if queue != nil {
		close(queue) // old workers drain their queue and exit
	}
	start(n)
}

// ensure returns the work queue, starting the pool if needed.
func ensure() chan task {
	mu.Lock()
	defer mu.Unlock()
	if queue == nil {
		start(defaultSize())
	}
	return queue
}

// start launches n workers on a fresh queue. Caller holds mu.
func start(n int) {
	size = n
	queue = make(chan task, n*queueDepth)
	for i := 0; i < n; i++ {
		go worker(i, queue)
	}
}

func worker(id int, q chan task) {
	for t := range q {
		if t.sp != nil {
			// Per-chunk span under the dispatching call's span: worker
			// lane, chunk bounds, and how long the chunk sat queued.
			sp := t.sp.StartChild("pool.chunk").SetTrack(id+1).
				SetInt("worker", int64(id)).
				SetInt("n", int64(t.hi-t.lo))
			wait := time.Since(t.submitted).Seconds()
			sp.SetFloat("queue_wait_s", wait)
			obsPoolQueueWait.Add(wait)
			t.body(t.lo, t.hi)
			sp.End()
		} else {
			t.body(t.lo, t.hi)
		}
		t.wg.Done()
	}
}

// For splits [0, n) into chunks of at least grain indices and runs body
// over the chunks in parallel, returning when all chunks are done. With
// one chunk (small n, or a single-worker pool) the body runs inline on
// the calling goroutine with no synchronization at all.
func For(n, grain int, body func(lo, hi int)) { ForMax(0, n, grain, body) }

// ForMax is For with an additional cap on the number of chunks
// (max <= 0 means the pool size). Engines expose their own worker-count
// knobs by passing them here.
func ForMax(max, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := kernelShare()
	if max > 0 && max < chunks {
		chunks = max
	}
	if byGrain := (n + grain - 1) / grain; byGrain < chunks {
		chunks = byGrain
	}
	if chunks <= 1 {
		body(0, n)
		return
	}
	// Dispatch span: one per multi-chunk ForMax call, with the worker-side
	// chunks as its children on their worker lanes. Kernels have no span
	// handle in reach, so it is a record at the trace root, placed by its
	// timestamps and lanes, not a child of the region that called it.
	var submitted time.Time
	sp := obs.Start("pool.for").SetInt("n", int64(n)).SetInt("chunks", int64(chunks))
	if sp != nil {
		submitted = time.Now()
	}
	q := ensure()
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := n*c/chunks, n*(c+1)/chunks
		if lo == hi {
			continue
		}
		wg.Add(1)
		select {
		case q <- task{body, lo, hi, &wg, sp, submitted}:
			obsPoolTasks.Add(1)
		default:
			// Queue full (deep nesting or heavy concurrent use): make
			// progress on the submitting goroutine rather than block.
			obsPoolInline.Add(1)
			body(lo, hi)
			wg.Done()
		}
	}
	body(0, n/chunks)
	wg.Wait()
	sp.End()
}
