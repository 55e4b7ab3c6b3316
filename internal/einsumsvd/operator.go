package einsumsvd

import (
	"strings"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/linalg"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// This file plans the factorization, not the single application. RandSVD
// applies the network NIter+1 times forward at the sketch width, once
// more at the probe width, and NIter+1 times in adjoint form. In the
// optimal order of one application some pairwise steps never touch the
// block vector: their results are the same in all 2*NIter+3 applications.
// An operatorPlan names the groups of network operands contracted once
// per Factor call ("hoisted") and the two specs that apply what is left.

// operatorPlan is the decomposition one split spec uses at one sketch
// width and iteration count.
type operatorPlan struct {
	// groups partitions the network operands, in order of each group's
	// first member. A group of one enters the applications as it is; a
	// larger group is contracted by the matching entry of hoists.
	groups [][]int
	hoists []hoist
	// applySpec and adjSpec run over one operand per group plus the block
	// vector, which comes last in applySpec and first in adjSpec: placed
	// so, and with a hoisted value's row letters leading and its col
	// letters trailing, a fully hoisted network is applied in both
	// directions without transposing it.
	applySpec, adjSpec string

	// cmacs is the modeled complex multiply-adds of one Factor call and
	// kept the elements the hoisted values hold between applications.
	cmacs float64
	kept  int

	// bufs recycles the hoisted values' storage, which lives for exactly
	// one Factor call: one buffer per entry of hoists.
	bufs pool.FreeList[[][]complex128]
}

// hoist is one block-independent contraction: spec over the network
// operands ops, producing size elements.
type hoist struct {
	spec string
	ops  []int
	size int
}

type planKey struct{ width, nIter int }

// maxHoistOperands bounds the networks whose decompositions are searched:
// the search visits every set partition of the operands (15 at 4
// operands, 203 at 6, 4140 at 8) and runs the path planner a few times on
// each. Larger networks stay fully implicit. The lattice code's split
// specs have at most 4 operands.
const maxHoistOperands = 6

// operatorPlan returns the decomposition for the given sketch width and
// iteration count, choosing it on first use.
func (p *splitSpec) operatorPlan(width, nIter int) *operatorPlan {
	key := planKey{width, nIter}
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if pl, ok := p.plans[key]; ok {
		return pl
	}
	if p.plans == nil {
		p.plans = map[planKey]*operatorPlan{}
	}
	pl := p.choosePlan(width, nIter)
	p.plans[key] = pl
	return pl
}

// choosePlan picks, among the set partitions of the network operands, the
// decomposition with the fewest modeled multiply-adds per Factor call,
// the fully implicit one on ties. The memory guard needs no knob: the
// hoisted values may hold no more elements than the largest tensor one
// fully implicit application materializes anyway, so the operator's peak
// scratch at most doubles, and a network that is cheaper to apply than to
// form (Table II's regime) is never formed.
func (p *splitSpec) choosePlan(width, nIter int) *operatorPlan {
	n := len(p.subs)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	best, guard := p.decompose(assign, width, nIter)
	if n > maxHoistOperands {
		return best
	}
	// Restricted-growth strings enumerate each set partition once.
	var walk func(i, used int)
	walk = func(i, used int) {
		if i == n {
			if used == n {
				return // the implicit plan, taken above
			}
			if c, _ := p.decompose(assign, width, nIter); float64(c.kept) <= guard && c.cmacs < best.cmacs {
				best = c
			}
			return
		}
		for g := 0; g <= used; g++ {
			assign[i] = g
			walk(i+1, max(used, g+1))
		}
	}
	walk(0, 0)
	return best
}

type priceKey struct{ rank, width, nIter int }

// sketchPays reports whether the sketch is priced below forming the
// operator for a rank-`rank` Factor call at the given sketch width and
// iteration count (see prices); the choice is made once per key.
func (p *splitSpec) sketchPays(rank, width, nIter int) bool {
	key := priceKey{rank, width, nIter}
	p.planMu.Lock()
	pays, ok := p.pays[key]
	p.planMu.Unlock()
	if ok {
		return pays
	}
	form, sketch := p.prices(rank, width, nIter)
	pays = sketch < form
	p.planMu.Lock()
	if p.pays == nil {
		p.pays = map[priceKey]bool{}
	}
	p.pays[key] = pays
	p.planMu.Unlock()
	return pays
}

// prices models one Factor call of each path in complex multiply-adds
// (cmacs), the unit of einsum.PathCost and of operatorPlan.cmacs:
//
//   - form: the contraction to the rowSize x colSize matrix along the
//     planner's path, plus that matrix's SVD;
//   - sketch: the operator plan (its hoisted contractions, NIter+1
//     forward, NIter+1 adjoint and one probe application), plus RandSVD's
//     2*NIter+1 block orthogonalizations (one per application but the
//     last adjoint, which forms B), the SVD of the width x colSize B, the
//     probe's projection onto the sketch and U = P U~.
//
// linalg.QRFlops counts the Householder QR's multiply-adds one for one,
// so it enters as it is. linalg.SVDFlops charges GESVD's standard count,
// 7 m n min(m, n), for a factorization that builds every singular pair;
// both SVDs here keep at most the sketch width of pairs, and linalg's
// truncating SVD replays its rotations onto those only, so one unit of
// SVDFlops enters as svdCmacs of a cmac.
func (p *splitSpec) prices(rank, width, nIter int) (form, sketch float64) {
	svd := func(m, n int) float64 { return svdCmacs * float64(linalg.SVDFlops(m, n)) }
	out := p.row + p.col
	full, _ := einsum.PathCost(p.subs, p.dims, out, einsum.PlanPath(p.subs, p.dims, out))
	m, n := p.rowSize, p.colSize
	form = full + svd(m, n)

	k := min(rank, m, n)
	sketch = p.operatorPlan(width, nIter).cmacs +
		float64(int64(nIter+1)*linalg.QRFlops(m, width)+int64(nIter)*linalg.QRFlops(n, width)) +
		svd(width, n) + float64(m*width*(2*linalg.ProbeColumns+k))
	return form, sketch
}

// svdCmacs is the cmacs one unit of linalg.SVDFlops costs in prices,
// read off the clock at BenchmarkPricedChoice's shapes (2 vCPUs): the
// truncating SVD of the formed 16x16 matrix spent 1.5 ns per unit
// against 2.7 ns per cmac for the contraction forming it and 3.4 ns for
// the sketch's applications; at 256x256, 0.21 ns against 0.44 and 0.42.
const svdCmacs = 0.5

// decompose builds the plan that hoists the groups assign describes
// (operand i belongs to group assign[i], groups numbered by first member)
// and models its cost. largest is the element count of the largest tensor
// a forward or adjoint application at the sketch width produces.
func (p *splitSpec) decompose(assign []int, width, nIter int) (pl *operatorPlan, largest float64) {
	pl = &operatorPlan{}
	for i, g := range assign {
		if g == len(pl.groups) {
			pl.groups = append(pl.groups, nil)
		}
		pl.groups[g] = append(pl.groups[g], i)
	}
	dims := make(map[byte]int, len(p.dims)+1)
	for c, d := range p.dims {
		dims[c] = d
	}
	model := func(inputs []string, output string) (cmacs, largest float64) {
		return einsum.PathCost(inputs, dims, output, einsum.PlanPath(inputs, dims, output))
	}

	// One application operand per group.
	operands := make([]string, len(pl.groups))
	for g, members := range pl.groups {
		if len(members) == 1 {
			operands[g] = p.subs[members[0]]
			continue
		}
		inputs := make([]string, len(members))
		for k, i := range members {
			inputs[k] = p.subs[i]
		}
		out := p.hoistedSubs(assign, g)
		h := hoist{spec: strings.Join(inputs, ",") + "->" + out, ops: members, size: 1}
		for i := 0; i < len(out); i++ {
			h.size *= dims[out[i]]
		}
		c, _ := model(inputs, out)
		pl.cmacs += c
		pl.kept += h.size
		pl.hoists = append(pl.hoists, h)
		operands[g] = out
	}

	z := string(p.blockLetter)
	fwd := append(append([]string(nil), operands...), p.col+z)
	adj := append([]string{p.row + z}, operands...)
	pl.applySpec = strings.Join(fwd, ",") + "->" + p.row + z
	pl.adjSpec = strings.Join(adj, ",") + "->" + p.col + z

	dims[p.blockLetter] = width
	fc, fl := model(fwd, p.row+z)
	ac, al := model(adj, p.col+z)
	dims[p.blockLetter] = linalg.ProbeColumns
	pc, _ := model(fwd, p.row+z)
	pl.cmacs += float64(nIter+1)*(fc+ac) + pc
	return pl, max(fl, al)
}

// hoistedSubs is the subscript of group g's hoisted value: the letters of
// its operands that the outputs or an operand of another group need, row
// letters first in row order, col letters last in col order.
func (p *splitSpec) hoistedSubs(assign []int, g int) string {
	var inside, outside string
	for i, s := range p.subs {
		if assign[i] == g {
			inside += s
		} else {
			outside += s
		}
	}
	var head, mid, tail []byte
	for i := 0; i < len(p.row); i++ {
		if c := p.row[i]; strings.IndexByte(inside, c) >= 0 {
			head = append(head, c)
		}
	}
	for i := 0; i < len(p.col); i++ {
		if c := p.col[i]; strings.IndexByte(inside, c) >= 0 {
			tail = append(tail, c)
		}
	}
	for i := 0; i < len(inside); i++ {
		c := inside[i]
		if strings.IndexByte(outside, c) >= 0 && strings.IndexByte(p.row+p.col, c) < 0 && strings.IndexByte(string(mid), c) < 0 {
			mid = append(mid, c)
		}
	}
	return string(head) + string(mid) + string(tail)
}

// networkOperator applies the network as a linear operator from the col
// index group to the row index group, following one operatorPlan. It
// serves one factorization, from one goroutine: args holds the operands
// of its applications between two slots for the block vector of the call
// at hand, the first for the adjoint and the last for the forward spec.
type networkOperator struct {
	eng  backend.Engine
	p    *splitSpec
	plan *operatorPlan
	args []*tensor.Dense
	bufs [][]complex128 // storage of the hoisted values, nil if the engine made its own
}

// newNetworkOperator evaluates the plan's hoisted contractions over ops.
// They reach the engine as ordinary contractions: through EinsumInto on
// an engine that can write into the plan's recycled buffers, through
// Einsum, with the same result bit for bit, on one that cannot.
func newNetworkOperator(eng backend.Engine, p *splitSpec, plan *operatorPlan, ops []*tensor.Dense) *networkOperator {
	o := &networkOperator{eng: eng, p: p, plan: plan, args: make([]*tensor.Dense, len(plan.groups)+2)}
	into, _ := eng.(backend.IntoContractor)
	if into != nil && len(plan.hoists) > 0 {
		var ok bool
		if o.bufs, ok = plan.bufs.Get(); !ok {
			o.bufs = make([][]complex128, len(plan.hoists))
			for i, h := range plan.hoists {
				o.bufs[i] = make([]complex128, h.size)
			}
		}
	}
	next := 0
	for g, members := range plan.groups {
		if len(members) == 1 {
			o.args[1+g] = ops[members[0]]
			continue
		}
		h := plan.hoists[next]
		hops := make([]*tensor.Dense, len(h.ops))
		for k, i := range h.ops {
			hops[k] = ops[i]
		}
		if o.bufs != nil {
			o.args[1+g] = into.EinsumInto(o.bufs[next], h.spec, hops...)
		} else {
			o.args[1+g] = eng.Einsum(h.spec, hops...)
		}
		next++
	}
	return o
}

// release hands the hoisted values' storage back for the next
// factorization; the operator must not be applied afterwards.
func (o *networkOperator) release() {
	if o.bufs != nil {
		o.plan.bufs.Put(o.bufs)
		o.bufs = nil
	}
	clear(o.args)
}

func (o *networkOperator) Rows() int { return o.p.rowSize }
func (o *networkOperator) Cols() int { return o.p.colSize }

// apply contracts the network into the block vector q through contract,
// the engine's einsum or a reduced-precision one. The adjoint runs the
// transposed contraction on the same operands, A* q = conj(A^T conj(q)):
// conjugating the block and the result is two passes over a block
// vector, where conjugating the network copied every operand of every
// factorization — the bra sites a boundary sweep had conjugated once
// already included.
func (o *networkOperator) apply(contract func(string, ...*tensor.Dense) *tensor.Dense, adjoint bool, q *tensor.Dense) *tensor.Dense {
	last := len(o.args) - 1
	spec, in, out, args, slot := o.plan.applySpec, o.p.colDims, o.p.rowSize, o.args[1:], last
	if adjoint {
		spec, in, out, args, slot = o.plan.adjSpec, o.p.rowDims, o.p.colSize, o.args[:last], 0
		q = q.Conj()
	}
	r := q.Dim(1)
	o.args[slot] = q.Reshape(append(in[:len(in):len(in)], r)...)
	res := contract(spec, args...).Reshape(out, r)
	if adjoint {
		res.ConjInPlace() // the contraction's own result, shared with no one
	}
	return res
}

func (o *networkOperator) Apply(q *tensor.Dense) *tensor.Dense {
	return o.apply(o.eng.Einsum, false, q)
}

func (o *networkOperator) ApplyAdjoint(pv *tensor.Dense) *tensor.Dense {
	return o.apply(o.eng.Einsum, true, pv)
}

// mixedEinsum routes a contraction through the engine's complex64 GEMM
// path when the engine has one, full precision otherwise — the sketch
// option must degrade to a no-op on engines (Sym, Dist) that cannot
// compute in reduced precision.
func (o *networkOperator) mixedEinsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	if mc, ok := o.eng.(backend.MixedContractor); ok {
		return mc.EinsumMixed(spec, ops...)
	}
	return o.eng.Einsum(spec, ops...)
}

// ApplySketch and ApplyAdjointSketch implement linalg.SketchApplier:
// the same network contractions as Apply/ApplyAdjoint with the batched
// GEMMs in complex64.
func (o *networkOperator) ApplySketch(q *tensor.Dense) *tensor.Dense {
	return o.apply(o.mixedEinsum, false, q)
}

func (o *networkOperator) ApplyAdjointSketch(pv *tensor.Dense) *tensor.Dense {
	return o.apply(o.mixedEinsum, true, pv)
}

var (
	_ linalg.Operator      = (*networkOperator)(nil)
	_ linalg.SketchApplier = (*networkOperator)(nil)
)
