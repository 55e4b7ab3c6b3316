package einsum

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Plan cache: contraction hot loops (BMPS row absorption, expectation
// sweeps) evaluate the same handful of specs over tensors of unchanging
// shapes thousands of times. Compiled plans are memoized in a bounded
// LRU keyed on (spec, operand shapes) so the planning work runs once per
// unique signature.

// DefaultPlanCacheSize is the number of compiled plans retained; a
// simulation sweep uses a few dozen distinct signatures, so the default
// never evicts in practice while still bounding memory for adversarial
// spec streams.
const DefaultPlanCacheSize = 256

// Cache traffic observability. The obs counters appear in metrics dumps
// when observability is enabled; the atomics below back PlanCacheStats
// unconditionally so benchmarks can assert hit rates without enabling
// the full metrics layer.
var (
	obsPlanHits      = obs.NewCounter("einsum.plan.hits")
	obsPlanMisses    = obs.NewCounter("einsum.plan.misses")
	obsPlanEvictions = obs.NewCounter("einsum.plan.evictions")

	planHits, planMisses, planEvictions atomic.Int64
)

type planEntry struct {
	key  string
	plan *Plan
}

var (
	planMu    sync.Mutex
	planCap   = DefaultPlanCacheSize
	planLRU   list.List
	planIndex = map[string]*list.Element{}
)

// Plan kinds namespace the cache by the engine/tensor flavor that
// compiled the plan. Dense contractions and the per-block contractions
// of the block-sparse path can present identical (spec, shapes)
// signatures; tagging the key keeps their plans from colliding if the
// two lowerings ever diverge.
const (
	planKindDense byte = 'd'
	planKindSym   byte = 's'
)

// appendPlanKey appends to buf the encoding of the plan kind, the spec,
// and every operand shape. Ranks are implied by the spec, so flat
// dimension lists with separators are unambiguous.
func appendPlanKey(buf []byte, kind byte, spec string, ops []*tensor.Dense) []byte {
	buf = append(buf, kind, '!')
	buf = append(buf, spec...)
	for _, op := range ops {
		buf = append(buf, '|')
		for _, d := range op.Shape() {
			buf = strconv.AppendInt(buf, int64(d), 10)
			buf = append(buf, ',')
		}
	}
	return buf
}

// cachedPlan returns the compiled plan for (kind, spec, operand
// shapes), compiling and inserting it on a miss. Compilation happens
// outside the lock; concurrent first calls may compile twice, and the
// incumbent entry wins so all callers share one list of scratch frames.
func cachedPlan(kind byte, spec string, ops []*tensor.Dense) (*Plan, error) {
	// The key is built on the stack and a hit looks it up without
	// materializing the string: a replay allocates nothing for it.
	var arr [128]byte
	kb := appendPlanKey(arr[:0], kind, spec, ops)
	planMu.Lock()
	if el, ok := planIndex[string(kb)]; ok {
		planLRU.MoveToFront(el)
		p := el.Value.(*planEntry).plan
		planMu.Unlock()
		planHits.Add(1)
		obsPlanHits.Add(1)
		return p, nil
	}
	planMu.Unlock()
	planMisses.Add(1)
	obsPlanMisses.Add(1)
	key := string(kb)

	shapes := make([][]int, len(ops))
	for i, op := range ops {
		shapes[i] = op.Shape()
	}
	p, err := Compile(spec, shapes)
	if err != nil {
		return nil, err
	}

	planMu.Lock()
	if el, ok := planIndex[key]; ok {
		planLRU.MoveToFront(el)
		p = el.Value.(*planEntry).plan
	} else {
		planIndex[key] = planLRU.PushFront(&planEntry{key, p})
		for planLRU.Len() > planCap {
			back := planLRU.Back()
			planLRU.Remove(back)
			delete(planIndex, back.Value.(*planEntry).key)
			planEvictions.Add(1)
			obsPlanEvictions.Add(1)
		}
	}
	planMu.Unlock()
	return p, nil
}

// PlanCacheStats returns the cumulative plan-cache hit, miss, and
// eviction counts since process start or the last ResetPlanCache.
func PlanCacheStats() (hits, misses, evictions int64) {
	return planHits.Load(), planMisses.Load(), planEvictions.Load()
}

// ResetPlanCache empties the plan cache — and every cache registered
// with OnResetPlanCache — and zeroes its statistics.
func ResetPlanCache() {
	planMu.Lock()
	planLRU.Init()
	planIndex = map[string]*list.Element{}
	planMu.Unlock()
	planHits.Store(0)
	planMisses.Store(0)
	planEvictions.Store(0)
	for _, f := range resetHooks {
		f()
	}
}

// resetHooks is filled from package init functions only.
var resetHooks []func()

// OnResetPlanCache registers f to run on every ResetPlanCache. Packages
// that memoize artifacts compiled per (spec, operand shapes) alongside
// the plans — einsumsvd's split specs — register their own reset here
// from an init function, so that one call returns the process to a cold
// start.
func OnResetPlanCache(f func()) { resetHooks = append(resetHooks, f) }

// SetPlanCacheSize bounds the cache to n plans (minimum 1), evicting
// least-recently-used entries immediately if the cache is over the new
// bound.
func SetPlanCacheSize(n int) {
	if n < 1 {
		n = 1
	}
	planMu.Lock()
	planCap = n
	for planLRU.Len() > planCap {
		back := planLRU.Back()
		planLRU.Remove(back)
		delete(planIndex, back.Value.(*planEntry).key)
		planEvictions.Add(1)
		obsPlanEvictions.Add(1)
	}
	planMu.Unlock()
}
