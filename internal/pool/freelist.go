package pool

import "sync"

// FreeList is a bounded last-in-first-out list of reusable scratch
// values: the einsum plans keep their execution frames on one, linalg
// its factorization workspaces. It exists because sync.Pool is emptied
// by the garbage collector: in the small-tensor regime the live heap is
// a few MB, a collection runs every few milliseconds, and each one threw
// away the scratch the pool was meant to keep (re-created frames were a
// fifth of all bytes allocated by an ITE step). A FreeList holds its
// values until its owner is dropped, and holds at most Size()+1 of them
// — one per worker that can be inside the owner at once, plus the
// submitting goroutine — so retention is bounded by the owner's scratch
// size times the pool size however many goroutines pass through; values
// returned to a full list are left to the collector.
//
// The zero value is an empty list ready for use; a FreeList must not be
// copied after first use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
	max  int // Size()+1 at the first Put
}

// Get removes and returns the most recently returned value; ok is false
// when the list is empty and the caller has to make a fresh one.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v, ok = l.free[n-1], true
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v, ok
}

// Put returns a value to the list, or drops it when the list is full.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	if l.max == 0 {
		l.max = Size() + 1
	}
	if len(l.free) < l.max {
		l.free = append(l.free, v)
	}
	l.mu.Unlock()
}
