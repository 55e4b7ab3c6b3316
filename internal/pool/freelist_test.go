package pool

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListBoundedLIFO pins the three properties the scratch owners
// rely on: values come back most-recent-first, at most Size()+1 are
// kept, and a garbage collection empties nothing (the failure of
// sync.Pool the type exists to avoid).
func TestFreeListBoundedLIFO(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	var l FreeList[*int]
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned a value")
	}
	vals := make([]*int, 10)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
		l.Put(vals[i])
	}
	runtime.GC()
	runtime.GC()
	for want := 3; want >= 0; want-- { // workers+1 kept: 0..3, last in first out
		v, ok := l.Get()
		if !ok || *v != want {
			t.Fatalf("Get = %v, %v; want value %d", v, ok, want)
		}
	}
	if v, ok := l.Get(); ok {
		t.Fatalf("list kept more than workers+1 values: got %d", *v)
	}
}

// TestFreeListConcurrent checks out and returns values from 8 goroutines;
// under -race this is the synchronization check, and no value may be
// held by two goroutines at once.
func TestFreeListConcurrent(t *testing.T) {
	type slot struct{ busy bool }
	var l FreeList[*slot]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s, ok := l.Get()
				if !ok {
					s = new(slot)
				}
				if s.busy {
					t.Error("value handed to two goroutines at once")
					return
				}
				s.busy = true
				runtime.Gosched()
				s.busy = false
				l.Put(s)
			}
		}()
	}
	wg.Wait()
}
