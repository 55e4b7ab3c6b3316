package dist

import (
	"math"
	"sync"

	"gokoala/internal/tensor"
)

// Grid is an SPMD execution context: a machine model plus the accumulated
// communication and computation accounting of every distributed operation
// executed on it. Block computations really execute as one goroutine per
// (occupied) rank over disjoint row blocks; the accounting converts the
// measured message, byte, and flop counts into modeled seconds on the
// machine.
//
// All accounting entry points are safe to drive from multiple task-group
// workers concurrently: time accumulates in integer picoseconds under the
// mutex, so the totals are independent of the interleaving (integer
// addition commutes; float summation would make the stats depend on
// worker count). The exceptions are Sequential and PartialParallel, which
// attribute a *measured* global flop delta and therefore still require a
// single driving goroutine — concurrent callers should charge analytic
// counts through ChargeFlops instead.
type Grid struct {
	Machine Machine

	mu          sync.Mutex
	msgs        int64
	bytes       int64
	commLatPs   int64 // alpha (message startup) time, picoseconds
	bwGemmPs    int64 // GEMM-lower-bound traffic (scales ~ flops/sqrt(memory))
	bwBigPs     int64 // full-tensor redistributions and gathers (scale ~ r^4)
	bwSmallPs   int64 // small-matrix collectives of the Gram path (scale ~ r^2)
	compPs      int64
	parFlops    int64
	seqFlops    int64
	redistCount int64

	// Per-op modeled communication time (OpBreakdown).
	modeledOpPs [NumOps]int64

	// Per-rank timeline accounts and the label naming this grid in
	// emitted rank records; see timeline.go.
	ranks []rankAcct
	label string
}

// picos converts modeled seconds to the integer picoseconds the
// accumulators hold. A picosecond is far below the alpha of any machine
// model (Stampede2 alpha is 10 us), so the rounding is invisible, while
// integer accumulation makes concurrent metering order-independent.
func picos(secs float64) int64 { return int64(math.Round(secs * 1e12)) }

func secs(ps int64) float64 { return float64(ps) / 1e12 }

// NewGrid returns a grid for the given machine model. While obs
// collection is enabled the grid also registers for end-of-run rank
// timeline emission (see FlushTimelines).
func NewGrid(m Machine) *Grid {
	if m.Ranks < 1 {
		m.Ranks = 1
	}
	g := &Grid{Machine: m}
	registerGrid(g)
	return g
}

// Stats is a snapshot of a grid's accounting. Subtract two snapshots with
// Sub to measure a region.
type Stats struct {
	Msgs  int64
	Bytes int64
	// CommLatencySeconds is the alpha (message startup) component of
	// communication time; the three bandwidth components split the beta
	// (byte transfer) time by how the payload scales with bond dimension:
	// GEMM-lower-bound traffic, full-tensor moves, and the small-matrix
	// collectives of the Gram method.
	CommLatencySeconds float64
	BWGemmSeconds      float64
	BWBigSeconds       float64
	BWSmallSeconds     float64
	CompSeconds        float64
	ParallelFlops      int64
	SequentialFlops    int64
	Redistributions    int64
}

// CommBandwidthSeconds is the total byte-transfer time.
func (s Stats) CommBandwidthSeconds() float64 {
	return s.BWGemmSeconds + s.BWBigSeconds + s.BWSmallSeconds
}

// CommSeconds is the total communication time.
func (s Stats) CommSeconds() float64 { return s.CommLatencySeconds + s.CommBandwidthSeconds() }

// Sub returns s - prev, the accounting of the region between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Msgs:               s.Msgs - prev.Msgs,
		Bytes:              s.Bytes - prev.Bytes,
		CommLatencySeconds: s.CommLatencySeconds - prev.CommLatencySeconds,
		BWGemmSeconds:      s.BWGemmSeconds - prev.BWGemmSeconds,
		BWBigSeconds:       s.BWBigSeconds - prev.BWBigSeconds,
		BWSmallSeconds:     s.BWSmallSeconds - prev.BWSmallSeconds,
		CompSeconds:        s.CompSeconds - prev.CompSeconds,
		ParallelFlops:      s.ParallelFlops - prev.ParallelFlops,
		SequentialFlops:    s.SequentialFlops - prev.SequentialFlops,
		Redistributions:    s.Redistributions - prev.Redistributions,
	}
}

// ModeledSeconds is the modeled wall time of the region: communication
// plus compute (compute was already divided by the parallelism each
// kernel achieves when it was recorded).
func (s Stats) ModeledSeconds() float64 { return s.CommSeconds() + s.CompSeconds }

// Reset zeroes all counters, including the per-rank timelines.
func (g *Grid) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.msgs, g.bytes, g.parFlops, g.seqFlops, g.redistCount = 0, 0, 0, 0, 0
	g.commLatPs, g.bwGemmPs, g.bwBigPs, g.bwSmallPs, g.compPs = 0, 0, 0, 0, 0
	g.modeledOpPs = [NumOps]int64{}
	g.ranks = nil
}

// Snapshot returns the current counters.
func (g *Grid) Snapshot() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Msgs:               g.msgs,
		Bytes:              g.bytes,
		CommLatencySeconds: secs(g.commLatPs),
		BWGemmSeconds:      secs(g.bwGemmPs),
		BWBigSeconds:       secs(g.bwBigPs),
		BWSmallSeconds:     secs(g.bwSmallPs),
		CompSeconds:        secs(g.compPs),
		ParallelFlops:      g.parFlops,
		SequentialFlops:    g.seqFlops,
		Redistributions:    g.redistCount,
	}
}

// OpStats is the modeled communication time of one op.
type OpStats struct {
	Op             Op
	ModeledSeconds float64
}

// OpBreakdown returns the per-op modeled communication accounting, in Op
// order.
func (g *Grid) OpBreakdown() []OpStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]OpStats, 0, NumOps)
	for op := Op(0); op < NumOps; op++ {
		out = append(out, OpStats{Op: op, ModeledSeconds: secs(g.modeledOpPs[op])})
	}
	return out
}

// --- collective accounting ---

// Op identifies one of the grid's metered communication patterns: the
// five collectives, plus OpGemm, the GEMM communication lower bound of
// GemmComm.
type Op uint8

const (
	OpBcast Op = iota
	OpGather
	OpAllgather
	OpAllreduce
	OpAllToAll
	OpGemm
	NumOps
)

var opNames = [NumOps]string{"bcast", "gather", "allgather", "allreduce", "alltoall", "gemm"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// bandwidth classes for addComm
type bwClass int

const (
	bwClassGemm bwClass = iota
	bwClassBig
	bwClassSmall
)

// addComm records one collective's modeled cost. The obs-counter mirror
// (observeComm) runs while g.mu is still held: the obs totals therefore
// advance in the same order as the grid's own counters, so a concurrent
// snapshot can never observe grid totals ahead of (or behind) the
// published samples — publishing after unlock let collectives racing on
// the same grid publish out of order relative to the counters they
// describe.
func (g *Grid) addComm(op Op, msgs int64, bytes int64, latSecs, bwSecs float64, class bwClass, redists int64) {
	latPs, bwPs := picos(latSecs), picos(bwSecs)
	g.mu.Lock()
	g.msgs += msgs
	g.bytes += bytes
	g.commLatPs += latPs
	switch class {
	case bwClassGemm:
		g.bwGemmPs += bwPs
	case bwClassBig:
		g.bwBigPs += bwPs
	default:
		g.bwSmallPs += bwPs
	}
	g.modeledOpPs[op] += latPs + bwPs
	g.redistCount += redists
	g.rankComm(latPs, bwPs)
	observeComm(op, msgs, bytes, latSecs+bwSecs, redists)
	g.mu.Unlock()
}

// Allgather meters an allgather of totalBytes aggregate payload.
func (g *Grid) Allgather(totalBytes int64) {
	if g.Machine.Ranks <= 1 {
		return
	}
	lat, bw := g.Machine.allgatherSeconds(totalBytes)
	g.addComm(OpAllgather, int64(g.Machine.Ranks), totalBytes, lat, bw, bwClassBig, 0)
}

// Allreduce meters an allreduce of a bytes-sized buffer replicated on
// every rank (recursive halving/doubling: twice the allgather volume).
func (g *Grid) Allreduce(bytes int64) {
	if g.Machine.Ranks <= 1 {
		return
	}
	lat, bw := g.Machine.allgatherSeconds(bytes)
	g.addComm(OpAllreduce, 2*log2msgs(g.Machine.Ranks), bytes, 2*lat, 2*bw, bwClassSmall, 0)
}

// AllToAll meters a full redistribution (the cost of a distributed
// reshape or transpose, the bottleneck paper section V-C removes).
func (g *Grid) AllToAll(totalBytes int64) {
	if g.Machine.Ranks <= 1 {
		return
	}
	lat, bw := g.Machine.alltoallSeconds(totalBytes)
	g.addComm(OpAllToAll, int64(g.Machine.Ranks)*int64(g.Machine.Ranks-1), totalBytes, lat, bw, bwClassBig, 1)
}

// Gather meters collecting a distributed tensor onto one rank (or the
// reverse scatter; the cost model is symmetric).
func (g *Grid) Gather(totalBytes int64) {
	if g.Machine.Ranks <= 1 {
		return
	}
	lat, bw := g.Machine.gatherSeconds(totalBytes)
	g.addComm(OpGather, int64(g.Machine.Ranks), totalBytes, lat, bw, bwClassBig, 0)
}

// Bcast meters broadcasting bytes from one rank to all.
func (g *Grid) Bcast(bytes int64) {
	if g.Machine.Ranks <= 1 {
		return
	}
	lat, bw := g.Machine.bcastSeconds(bytes)
	g.addComm(OpBcast, log2msgs(g.Machine.Ranks), bytes, lat, bw, bwClassSmall, 0)
}

func log2msgs(p int) int64 {
	n := int64(0)
	for v := 1; v < p; v <<= 1 {
		n++
	}
	return n
}

// ParallelFlops credits flops that are evenly distributed over the ranks.
func (g *Grid) ParallelFlops(n int64) { g.ChargeFlops(n, g.Machine.Ranks) }

// ChargeFlops accounts an analytic flop count n at an effective
// parallelism of eff ranks (clamped to [1, Ranks]). Unlike Sequential and
// PartialParallel it never reads the measured global flop counter, so it
// is safe — and exact — when concurrent task-group workers drive the same
// grid: linalg exposes the analytic counts its kernels charge (SVDFlops,
// QRFlops, EigFlops) precisely so callers can meter this way.
func (g *Grid) ChargeFlops(n int64, eff int) {
	if eff < 1 {
		eff = 1
	}
	if eff > g.Machine.Ranks {
		eff = g.Machine.Ranks
	}
	s := g.Machine.Gamma * float64(n) / float64(eff)
	p := picos(s)
	g.mu.Lock()
	if eff == 1 {
		g.seqFlops += n
	} else {
		g.parFlops += n
	}
	g.compPs += p
	g.rankComp(p, eff)
	observeComp(s)
	g.mu.Unlock()
}

// Sequential runs f, measuring the flops it adds to the global tensor
// counter, and accounts them as single-rank work (small local matrices in
// the Gram-method path, paper Algorithm 5 steps 3-8). The measured delta
// includes any flops charged concurrently by other goroutines, so this
// must only be used from a single driving goroutine; concurrent metering
// goes through ChargeFlops.
func (g *Grid) Sequential(f func()) { g.PartialParallel(1, f) }

// PartialParallel runs f and accounts its measured flops at an effective
// parallelism of eff ranks. This models kernels like ScaLAPACK SVD whose
// scalability saturates well below the GEMM-style rank count. Like
// Sequential it attributes a global measured delta and is not safe for
// concurrent drivers; prefer ChargeFlops with an analytic count.
func (g *Grid) PartialParallel(eff int, f func()) {
	if eff < 1 {
		eff = 1
	}
	if eff > g.Machine.Ranks {
		eff = g.Machine.Ranks
	}
	before := tensor.FlopCount()
	f()
	delta := tensor.FlopCount() - before
	g.ChargeFlops(delta, eff)
}

const bytesPerElem = 16 // complex128

// GemmComm meters the communication of one distributed GEMM of the given
// total flop count over operands/result totalling elems tensor elements.
// Cyclops-class frameworks choose processor mappings approaching the
// communication lower bound for matrix multiplication (Irony, Toledo,
// Tiskin): per-rank traffic >= flops_per_rank / sqrt(local memory), with
// ~2 sqrt(P) message rounds. We charge exactly that bound; simpler
// 2-D algorithms would only be a constant factor away.
func (g *Grid) GemmComm(flops, elems int64) {
	p := g.Machine.Ranks
	if p <= 1 {
		return
	}
	perRank := float64(elems) / float64(p)
	if perRank < 1 {
		perRank = 1
	}
	bwBytes := 2 * bytesPerElem * float64(flops) / float64(p) / math.Sqrt(perRank)
	rounds := 2 * math.Sqrt(float64(p))
	g.addComm(OpGemm, int64(rounds), int64(bwBytes), g.Machine.alphaEff()*rounds, g.Machine.betaEff()*bwBytes, bwClassGemm, 0)
}

// --- distributed kernels ---

// workers returns how many rank goroutines to actually spawn for a block
// computation of `rows` rows totalling `flops` work: never more than rows
// or ranks, and few enough that each goroutine gets a meaningful chunk
// (spawning 64 goroutines for a 100-flop multiply would measure scheduler
// overhead, not the algorithm). The accounting is unaffected — modeled
// costs always use the full rank count.
func (g *Grid) workers(rows int, flops int64) int {
	w := g.Machine.Ranks
	if rows < w {
		w = rows
	}
	if byWork := int(flops/32768) + 1; byWork < w {
		w = byWork
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MatMul computes C = A @ B with A row-block distributed across the
// ranks. The stationary operand B is allgathered, each rank goroutine
// computes its own row block with the sequential kernel, and the row
// blocks concatenate into C (which stays row-distributed, so no gather
// is metered).
func (g *Grid) MatMul(a, b *tensor.Dense) *tensor.Dense {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	flops := int64(m) * int64(n) * int64(k)
	g.GemmComm(flops, int64(a.Size()+b.Size())+int64(m)*int64(n))
	g.ParallelFlops(flops)

	out := tensor.New(m, n)
	w := g.workers(m, flops)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		lo := m * r / w
		hi := m * (r + 1) / w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ablk := tensor.FromData(a.Data()[lo*k:hi*k], hi-lo, k)
			cblk := tensor.MatMul(ablk, b)
			copy(out.Data()[lo*n:hi*n], cblk.Data())
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// BatchMatMul is the batched counterpart used by einsum lowering: operands
// [bt, m, k] and [bt, k, n]. The batch is distributed when it is at least
// the rank count, otherwise each slice's rows are distributed.
func (g *Grid) BatchMatMul(a, b *tensor.Dense) *tensor.Dense {
	bt, m, k := a.Dim(0), a.Dim(1), a.Dim(2)
	n := b.Dim(2)
	if bt == 1 {
		return g.MatMul(a.Reshape(m, k), b.Reshape(k, n)).Reshape(1, m, n)
	}
	flops := int64(bt) * int64(m) * int64(n) * int64(k)
	g.GemmComm(flops, int64(a.Size()+b.Size())+int64(bt)*int64(m)*int64(n))
	g.ParallelFlops(flops)
	out := tensor.New(bt, m, n)
	w := g.workers(bt, flops)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		lo := bt * r / w
		hi := bt * (r + 1) / w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ablk := tensor.FromData(a.Data()[lo*m*k:hi*m*k], hi-lo, m, k)
			bblk := tensor.FromData(b.Data()[lo*k*n:hi*k*n], hi-lo, k, n)
			cblk := tensor.BatchMatMul(ablk, bblk)
			copy(out.Data()[lo*m*n:hi*m*n], cblk.Data())
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// GramMatrix computes G = A^H A for a row-block distributed m-by-n A
// without any redistribution: each rank forms the n-by-n Gram matrix of
// its own row block locally and the contributions are allreduced. This is
// the communication pattern that makes paper Algorithm 5 cheap — only
// n^2 elements ever cross the network.
func (g *Grid) GramMatrix(a *tensor.Dense) *tensor.Dense {
	m, n := a.Dim(0), a.Dim(1)
	flops := int64(m) * int64(n) * int64(n)
	g.ParallelFlops(flops)
	w := g.workers(m, flops)
	partials := make([]*tensor.Dense, w)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		lo := m * r / w
		hi := m * (r + 1) / w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(r, lo, hi int) {
			defer wg.Done()
			ablk := tensor.FromData(a.Data()[lo*n:hi*n], hi-lo, n)
			partials[r] = tensor.MatMul(ablk.Conj().Transpose(1, 0), ablk)
		}(r, lo, hi)
	}
	wg.Wait()
	g.Allreduce(int64(n) * int64(n) * bytesPerElem)
	sum := tensor.New(n, n)
	for _, p := range partials {
		if p != nil {
			sum = sum.Add(p)
		}
	}
	return sum
}
