package pool

import (
	"gokoala/internal/obs"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTasksRunsAllIndices(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 4, 8} {
		SetWorkers(workers)
		const n = 100
		got := make([]int32, n)
		Tasks(nil, "test", n, func(i int, _ *obs.Span) { atomic.AddInt32(&got[i], 1) })
		for i, c := range got {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, c)
			}
		}
	}
}

func TestGroupSlotWritesAreOrdered(t *testing.T) {
	// The determinism contract: tasks write caller-indexed slots, the
	// caller reduces in index order, so the reduction is identical for
	// every worker count.
	defer SetWorkers(0)
	var want float64
	for _, workers := range []int{1, 2, 4, 8} {
		SetWorkers(workers)
		const n = 64
		vals := make([]float64, n)
		g := NewGroup(nil, "reduce")
		for i := 0; i < n; i++ {
			i := i
			g.Go(func(*obs.Span) { vals[i] = 1.0 / float64(i+1) })
		}
		g.Wait()
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if workers == 1 {
			want = sum
			continue
		}
		if sum != want {
			t.Fatalf("workers=%d: sum %v differs from single-worker %v", workers, sum, want)
		}
	}
}

func TestTokenAccounting(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	if n := TokensInUse(); n != 0 {
		t.Fatalf("tokens in use before any group: %d", n)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	g := NewGroup(nil, "hold")
	// Two tasks claim both tokens and park.
	for i := 0; i < 2; i++ {
		g.Go(func(*obs.Span) {
			started <- struct{}{}
			<-release
		})
	}
	<-started
	<-started
	if n := TokensInUse(); n != 2 {
		t.Fatalf("tokens in use with 2 parked tasks: %d, want 2", n)
	}
	// A third task must fall back inline (no token left) rather than
	// block; if it were queued behind the parked tasks this would hang.
	ranInline := false
	g.Go(func(*obs.Span) { ranInline = true })
	if !ranInline {
		t.Fatal("third task did not run inline with all tokens taken")
	}
	close(release)
	g.Wait()
	if n := TokensInUse(); n != 0 {
		t.Fatalf("tokens in use after Wait: %d", n)
	}
}

func TestNestedGroupsComplete(t *testing.T) {
	// Nested fan-out must not deadlock even when the inner groups far
	// exceed the token budget: token-less tasks run inline.
	defer SetWorkers(0)
	SetWorkers(2)
	var count atomic.Int64
	Tasks(nil, "outer", 8, func(i int, _ *obs.Span) {
		Tasks(nil, "inner", 8, func(j int, _ *obs.Span) {
			count.Add(1)
		})
	})
	if got := count.Load(); got != 64 {
		t.Fatalf("nested tasks ran %d bodies, want 64", got)
	}
	if n := TokensInUse(); n != 0 {
		t.Fatalf("tokens leaked after nested groups: %d", n)
	}
}

func TestGroupPanicPropagates(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	g := NewGroup(nil, "panic")
	for i := 0; i < 4; i++ {
		i := i
		g.Go(func(*obs.Span) {
			if i == 2 {
				panic("boom")
			}
		})
	}
	defer func() {
		r := recover()
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("Wait recovered %T %v, want *TaskPanic", r, r)
		}
		if tp.Value != "boom" {
			t.Fatalf("TaskPanic.Value = %v, want boom", tp.Value)
		}
		// The re-raised panic must carry the panicking task's stack, not
		// the coordinator's: the frame of the task closure below is the
		// evidence a debugger actually needs.
		if !strings.Contains(string(tp.Stack), "TestGroupPanicPropagates") {
			t.Fatalf("TaskPanic.Stack does not reference the task body:\n%s", tp.Stack)
		}
		if n := TokensInUse(); n != 0 {
			t.Fatalf("tokens leaked after panic: %d", n)
		}
	}()
	g.Wait()
	t.Fatal("Wait returned without panicking")
}

func TestGroupPanicInlinePathAlsoWrapped(t *testing.T) {
	// With zero tokens free every Go runs inline on the caller; the panic
	// unwinds through run's recover on the submitting goroutine and must
	// still come back from Wait as a *TaskPanic with a stack.
	defer SetWorkers(0)
	SetWorkers(1)
	release := make(chan struct{})
	started := make(chan struct{})
	holder := NewGroup(nil, "holder")
	holder.Go(func(*obs.Span) { close(started); <-release })
	<-started

	g := NewGroup(nil, "inline-panic")
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Go re-raised the inline panic instead of deferring it to Wait: %v", r)
			}
		}()
		g.Go(func(*obs.Span) { panic("inline-boom") })
	}()
	func() {
		defer func() {
			tp, ok := recover().(*TaskPanic)
			if !ok || tp.Value != "inline-boom" {
				t.Fatalf("Wait recovered %v, want TaskPanic{inline-boom}", tp)
			}
			if !strings.Contains(string(tp.Stack), "TestGroupPanicInlinePathAlsoWrapped") {
				t.Fatalf("inline TaskPanic.Stack does not reference the task body:\n%s", tp.Stack)
			}
		}()
		g.Wait()
		t.Fatal("Wait returned without panicking")
	}()
	close(release)
	holder.Wait()
}

func TestGroupPanicDoesNotStarveLaterGroups(t *testing.T) {
	// A panicking lattice task must release its worker token and leave
	// the lattice-active budget balanced, so subsequent task groups and
	// kernel ForMax splits still get the full pool. Repeat to catch
	// leaks that only starve after several failures.
	defer SetWorkers(0)
	SetWorkers(2)
	for round := 0; round < 5; round++ {
		func() {
			defer func() { recover() }()
			Tasks(nil, "failing", 4, func(i int, _ *obs.Span) {
				if i%2 == 1 {
					panic(i)
				}
			})
		}()
		if n := TokensInUse(); n != 0 {
			t.Fatalf("round %d: %d tokens leaked by panicking tasks", round, n)
		}
		if got := kernelShare(); got != 2 {
			t.Fatalf("round %d: kernelShare = %d after panics, want 2", round, got)
		}
		// The pool must still execute fresh work to completion.
		var count atomic.Int64
		Tasks(nil, "after", 8, func(i int, _ *obs.Span) { count.Add(1) })
		if count.Load() != 8 {
			t.Fatalf("round %d: follow-up group ran %d tasks, want 8", round, count.Load())
		}
		covered := make([]int32, 256)
		ForMax(0, len(covered), 1, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				atomic.AddInt32(&covered[k], 1)
			}
		})
		for k, c := range covered {
			if c != 1 {
				t.Fatalf("round %d: ForMax covered index %d %d times", round, k, c)
			}
		}
	}
}

func TestKernelShareUnderLatticeTasks(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(8)
	if got := kernelShare(); got != 8 {
		t.Fatalf("idle kernelShare = %d, want 8", got)
	}
	var entered sync.WaitGroup
	entered.Add(2)
	proceed := make(chan struct{})
	g := NewGroup(nil, "share")
	g.Go(func(*obs.Span) { entered.Done(); <-proceed })
	g.Go(func(*obs.Span) { entered.Done(); <-proceed })
	entered.Wait()
	// Both tasks active: kernels see half the pool.
	if got := kernelShare(); got != 4 {
		t.Fatalf("kernelShare with 2 active lattice tasks = %d, want 4", got)
	}
	close(proceed)
	g.Wait()
	if got := kernelShare(); got != 8 {
		t.Fatalf("kernelShare after Wait = %d, want 8", got)
	}
}

func TestForMaxInsideGroupStillCoversRange(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	Tasks(nil, "cover", 4, func(i int, _ *obs.Span) {
		const n = 1000
		marks := make([]int32, n)
		ForMax(0, n, 1, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				atomic.AddInt32(&marks[k], 1)
			}
		})
		for k, c := range marks {
			if c != 1 {
				panic("index not covered exactly once: " + string(rune(k)))
			}
		}
	})
}
