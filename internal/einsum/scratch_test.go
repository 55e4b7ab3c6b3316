package einsum

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// stripSpec is the contraction the cached expectation spends its time
// in — one column of a two-layer strip absorption applied to a block
// vector (r = 2, m = 4, sketch width 8): five operands of 32 to 128
// elements, eight ops deep.
const stripSpec = "gbcC,buUe,ucdrp,UCDRp,eRrz->gdDz"

var stripShapes = [][]int{{4, 4, 2, 2}, {4, 2, 2, 4}, {2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}, {4, 2, 2, 8}}

func stripOperands(seed int64) []*tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]*tensor.Dense, len(stripShapes))
	for i, sh := range stripShapes {
		ops[i] = tensor.Rand(rng, sh...)
	}
	return ops
}

// TestPlanExecuteAllocs is the allocation regression test of the plan
// scratch: a warmed replay allocates its result and nothing else (the
// buffer and its header), and — what the sync.Pool this replaced could
// not do — still does after the collector has run twice.
func TestPlanExecuteAllocs(t *testing.T) {
	p, err := Compile(stripSpec, stripShapes)
	if err != nil {
		t.Fatal(err)
	}
	ops := stripOperands(3)
	run := func() {
		if _, err := p.Execute(ops...); err != nil {
			t.Fatal(err)
		}
	}
	run() // builds the frame
	warm := testing.AllocsPerRun(100, run)
	if warm > 2 {
		t.Errorf("warmed Plan.Execute allocates %v times per run, want the result tensor only (2)", warm)
	}
	runtime.GC()
	runtime.GC()
	if after := testing.AllocsPerRun(100, run); after != warm {
		t.Errorf("Plan.Execute allocates %v times per run after two GC cycles, %v before: the scratch frame did not survive", after, warm)
	}
}

// TestPlanFramesBoundedAndDetached replays one plan from 8 goroutines at
// once, each holding a frame of its own, with collections in between,
// and checks every result; afterwards the plan may keep no more than
// workers+1 frames, and a parked frame may hold on to nothing but its
// own buffers (no operand, no result).
func TestPlanFramesBoundedAndDetached(t *testing.T) {
	p, err := Compile(stripSpec, stripShapes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ops := stripOperands(seed)
			want, err := contractUncached(stripSpec, ops, Hooks{})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				got, err := p.Execute(ops...)
				if err != nil {
					t.Error(err)
					return
				}
				for k, v := range got.Data() {
					if absc(v-want.Data()[k]) > 1e-12 {
						t.Errorf("goroutine %d replay %d differs at element %d", seed, i, k)
						return
					}
				}
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}(int64(g))
	}
	wg.Wait()

	kept := 0
	for {
		f, ok := p.frames.Get()
		if !ok {
			break
		}
		kept++
		for i, v := range f.vals {
			if v != nil {
				t.Errorf("parked frame keeps slot %d alive", i)
			}
		}
		for _, views := range [][]*tensor.Dense{f.a, f.b, f.c} {
			for i, v := range views {
				if v != nil && v.Data() != nil {
					t.Errorf("parked frame keeps a GEMM view of op %d bound", i)
				}
			}
		}
	}
	if kept == 0 || kept > pool.Size()+1 {
		t.Errorf("plan kept %d frames, want 1..%d (workers+1)", kept, pool.Size()+1)
	}
}

// BenchmarkPlanExecuteSmallUnderGC replays the strip contraction with a
// collection every 64 replays, the rhythm of an ITE measurement step
// (live heap of a few MB, ~25 collections per 6000 contractions): the
// regime in which a scratch pool the collector empties re-creates its
// frames for ever.
func BenchmarkPlanExecuteSmallUnderGC(b *testing.B) {
	p, err := Compile(stripSpec, stripShapes)
	if err != nil {
		b.Fatal(err)
	}
	ops := stripOperands(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			runtime.GC()
		}
		if _, err := p.Execute(ops...); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameBuffersNeverAlias checks the frame layout on every plan of the
// equivalence suite plus the deep strip contraction: while an op runs,
// each intermediate it reads still sits in the buffer it was written to
// (no later result has been given that buffer), the op does not write
// the buffer it reads, and sharing buffers makes the deep plan's frame
// smaller than the sum of its intermediates. The results themselves are
// compared with the direct evaluator on a frame that has been used
// before, so that every buffer is dirty.
func TestFrameBuffersNeverAlias(t *testing.T) {
	cases := append([]struct {
		spec   string
		shapes [][]int
	}{{stripSpec, stripShapes}}, planEquivalenceCases...)
	for _, tc := range cases {
		p, err := Compile(tc.spec, tc.shapes)
		if err != nil {
			t.Fatal(err)
		}
		holder := make([]int, len(p.bufSizes)) // slot whose value each buffer holds
		for b := range holder {
			holder[b] = -1
		}
		bufOf := map[int]int{} // intermediate slot -> buffer
		var sum int64
		for i, op := range p.ops {
			srcs := []int{op.src}
			if op.kind == opGEMM || op.kind == opGEMMScatter {
				srcs = append(srcs, op.src2)
			}
			for _, s := range srcs {
				if b, ok := bufOf[s]; ok && holder[b] != s {
					t.Fatalf("%s: op %d reads slot %d, but its buffer %d now holds slot %d", tc.spec, i, s, b, holder[b])
				}
			}
			if op.dst == p.out {
				continue
			}
			if p.bufSizes[op.buf] < op.size {
				t.Fatalf("%s: op %d needs %d elements, buffer %d has %d", tc.spec, i, op.size, op.buf, p.bufSizes[op.buf])
			}
			for _, s := range srcs {
				if b, ok := bufOf[s]; ok && b == op.buf {
					t.Fatalf("%s: op %d writes buffer %d while reading slot %d from it", tc.spec, i, b, s)
				}
			}
			holder[op.buf], bufOf[op.dst] = op.dst, op.buf
			sum += int64(op.size) * bytesPerElem
		}
		if tc.spec == stripSpec && p.frameBytes*3 > sum*2 {
			t.Errorf("%s: frame of %d bytes for %d bytes of intermediates: buffers are not being shared", tc.spec, p.frameBytes, sum)
		}
		for round := 0; round < 2; round++ {
			ops := randOperands(rand.New(rand.NewSource(int64(round))), tc.shapes)
			got, err := p.Execute(ops...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := contractUncached(tc.spec, ops, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range got.Data() {
				if absc(v-want.Data()[k]) > 1e-12 {
					t.Fatalf("%s: round %d element %d differs from the direct evaluation", tc.spec, round, k)
				}
			}
		}
	}
}
