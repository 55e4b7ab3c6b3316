package einsum

import (
	"fmt"
	"strings"

	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// This file compiles a contraction into a replayable Plan. All the
// decisions Contract makes — the pairwise order (PlanPath), which private
// letters to sum out, every transpose permutation, and the shape of
// every batched GEMM — depend only on the spec and the operand shapes,
// never on element values. Compiling resolves them once into a linear
// tape of primitive ops over value slots; replaying the tape skips the
// parsing, path search, and layout bookkeeping entirely and runs its
// intermediates on recycled scratch frames.

type opKind uint8

const (
	opTranspose   opKind = iota // dst = src with axes permuted
	opRowSum                    // dst[i] = sum_j src[i*dropN+j] (private-letter sum-out)
	opGEMM                      // dst = batched src @ src2
	opGEMMScatter               // dst = batched src @ src2 scattered through offset tables (fused GEMM+transpose)
	opClone                     // dst = copy of src (identity specs)
)

// planOp is one primitive of a compiled contraction. Slots 0..nIn-1 hold
// the operands; the i-th op writes slot nIn+i, so the tape is in SSA
// form and every slot is written exactly once.
type planOp struct {
	kind  opKind
	src   int
	src2  int // opGEMM only
	dst   int
	shape []int // logical shape of the result
	size  int   // product of shape

	perm      []int // opTranspose: result axis i is src axis perm[i]
	srcStride []int // opTranspose: stride of result axis i in the source layout
	move      int   // opTranspose: elements reported to OnMove (0 = leading axis kept)

	keptN, dropN int // opRowSum: src viewed as keptN x dropN

	batch, m, n, k int // opGEMM dimensions
	axB, axM       int // opGEMM: leading axes of shape forming batch / m

	// opGEMMScatter: the absorbed transpose. gemmShape is the product's
	// logical shape before permutation (perm and move describe the
	// transpose, as for opTranspose); the offset tables map a product
	// element (t, i, j) to dst offset bMap[t]+iMap[i]+jMap[j].
	gemmShape        []int
	bMap, iMap, jMap []int

	// Executor view shapes, precomputed so replays build operand and
	// result views without allocating: [batch, m, k], [batch, k, n],
	// and [batch, m, n] for opGEMM and opGEMMScatter.
	aShape, bShape, cShape []int

	// buf is the frame buffer the result is written to (see
	// assignBuffers); unused for the op producing the plan's output.
	buf int
}

// Plan is a contraction compiled for one (spec, operand shapes) pair:
// the pairwise order and every permutation, reshape, and GEMM shape,
// resolved once and replayable against any operands with those shapes.
// Plans are safe for concurrent use.
type Plan struct {
	spec     string
	inShapes [][]int
	nIn      int
	nSlots   int // operands plus every op result ever emitted
	ops      []planOp
	out      int // slot holding the final result
	cost     Cost

	// frames recycles the per-execution scratch (see frame) across
	// executions. The overwrite-mode kernels never read their
	// destination, so recycled buffers are reused dirty: replaying a plan
	// allocates no intermediate storage and creates no garbage beyond the
	// result itself. The list is bounded and lives exactly as long as the
	// plan: a garbage collection does not empty it, eviction from the
	// plan cache frees it (DESIGN.md section 7).
	frames pool.FreeList[*frame]
	// bufSizes is the element count of each buffer of a scratch frame,
	// frameBytes their total byte size and outBytes the size of the
	// escaping result buffer; the last two feed the obs live/peak
	// scratch-memory account per execution.
	bufSizes   []int
	frameBytes int64
	outBytes   int64
}

// bytesPerElem is the storage size of one complex128 tensor element.
const bytesPerElem = 16

// Compile resolves spec against the given operand shapes and returns the
// reusable contraction plan. The result is identical, op for op, to what
// Contract would do for operands of those shapes.
func Compile(spec string, shapes [][]int) (*Plan, error) {
	inputs, output, err := parseSpec(spec, len(shapes))
	if err != nil {
		return nil, err
	}
	dims, err := resolveDimsShapes(inputs, shapes)
	if err != nil {
		return nil, fmt.Errorf("einsum %q: %w", spec, err)
	}
	for i := 0; i < len(output); i++ {
		if _, ok := dims[output[i]]; !ok {
			return nil, fmt.Errorf("einsum %q: output letter %q not present in any input", spec, string(output[i]))
		}
	}

	p := &Plan{spec: spec, nIn: len(shapes)}
	p.inShapes = make([][]int, len(shapes))
	for i, s := range shapes {
		p.inShapes[i] = append([]int(nil), s...)
	}

	// symNode tracks an intermediate symbolically: its subscript, the
	// slot its value will occupy at run time, and its shape.
	type symNode struct {
		subs  string
		slot  int
		shape []int
	}

	emit := func(op planOp) int {
		op.dst = p.nIn + len(p.ops)
		op.size = 1
		for _, d := range op.shape {
			op.size *= d
		}
		p.ops = append(p.ops, op)
		return op.dst
	}

	// symTranspose mirrors maybeTranspose: identity permutations vanish,
	// and a permutation moving axis 0 counts as data movement (the 1-D
	// row-block distribution accounting described there).
	symTranspose := func(n symNode, perm []int) symNode {
		identity := true
		for i, q := range perm {
			if q != i {
				identity = false
				break
			}
		}
		if identity {
			return n
		}
		shape := make([]int, len(perm))
		subs := make([]byte, len(perm))
		for i, q := range perm {
			shape[i] = n.shape[q]
			subs[i] = n.subs[q]
		}
		move := 0
		if len(perm) > 0 && perm[0] != 0 {
			move = 1
			for _, d := range shape {
				move *= d
			}
			p.cost.MovedElements += int64(move)
		}
		slot := emit(planOp{kind: opTranspose, src: n.slot, perm: append([]int(nil), perm...), shape: shape, move: move})
		return symNode{string(subs), slot, shape}
	}

	// symSumOut mirrors sumOut: reduce axes whose letters are not kept.
	symSumOut := func(n symNode, keep map[byte]bool) symNode {
		var keptSubs []byte
		var keptAxes, dropAxes []int
		for i := 0; i < len(n.subs); i++ {
			if keep[n.subs[i]] {
				keptSubs = append(keptSubs, n.subs[i])
				keptAxes = append(keptAxes, i)
			} else {
				dropAxes = append(dropAxes, i)
			}
		}
		if len(dropAxes) == 0 {
			return n
		}
		perm := append(append([]int{}, keptAxes...), dropAxes...)
		nt := symTranspose(n, perm)
		keptN, dropN := 1, 1
		for _, a := range keptAxes {
			keptN *= n.shape[a]
		}
		for _, a := range dropAxes {
			dropN *= n.shape[a]
		}
		outShape := make([]int, len(keptAxes))
		for i, a := range keptAxes {
			outShape[i] = n.shape[a]
		}
		slot := emit(planOp{kind: opRowSum, src: nt.slot, keptN: keptN, dropN: dropN, shape: outShape})
		return symNode{string(keptSubs), slot, outShape}
	}

	// symContractPair mirrors contractPair: sum out private letters, then
	// classify axes as batch/contracted/free and lower to one batched GEMM.
	symContractPair := func(a, b symNode, need map[byte]bool) symNode {
		inB := letterSet(b.subs)
		inA := letterSet(a.subs)
		keepA := map[byte]bool{}
		for c := range need {
			keepA[c] = true
		}
		for c := range inB {
			keepA[c] = true
		}
		a = symSumOut(a, keepA)
		keepB := map[byte]bool{}
		for c := range need {
			keepB[c] = true
		}
		for c := range inA {
			keepB[c] = true
		}
		b = symSumOut(b, keepB)
		inA, inB = letterSet(a.subs), letterSet(b.subs)

		var batch, con, freeA, freeB []byte
		for i := 0; i < len(a.subs); i++ {
			c := a.subs[i]
			switch {
			case inB[c] && need[c]:
				batch = append(batch, c)
			case inB[c]:
				con = append(con, c)
			default:
				freeA = append(freeA, c)
			}
		}
		for i := 0; i < len(b.subs); i++ {
			c := b.subs[i]
			if !inA[c] {
				freeB = append(freeB, c)
			}
		}

		permFor := func(subs string, groups ...[]byte) []int {
			var perm []int
			for _, g := range groups {
				for _, c := range g {
					perm = append(perm, strings.IndexByte(subs, c))
				}
			}
			return perm
		}
		prod := func(g []byte) int {
			p := 1
			for _, c := range g {
				p *= dims[c]
			}
			return p
		}

		at := symTranspose(a, permFor(a.subs, batch, freeA, con))
		bt := symTranspose(b, permFor(b.subs, batch, con, freeB))
		bn, fa, cn, fb := prod(batch), prod(freeA), prod(con), prod(freeB)

		outSubs := string(batch) + string(freeA) + string(freeB)
		outShape := make([]int, 0, len(outSubs))
		for i := 0; i < len(outSubs); i++ {
			outShape = append(outShape, dims[outSubs[i]])
		}
		p.cost.Flops += FlopCount(bn, fa, fb, cn)
		p.cost.GEMMs++
		slot := emit(planOp{kind: opGEMM, src: at.slot, src2: bt.slot, batch: bn, m: fa, n: fb, k: cn, axB: len(batch), axM: len(freeA), shape: outShape})
		return symNode{outSubs, slot, outShape}
	}

	nodes := make([]symNode, len(shapes))
	for i := range shapes {
		nodes[i] = symNode{inputs[i], i, p.inShapes[i]}
	}

	for _, step := range PlanPath(inputs, dims, output) {
		i, j := step[0], step[1]
		need := lettersNeeded(output, len(nodes), func(k int) string { return nodes[k].subs }, i, j)
		nodes[i] = symContractPair(nodes[i], nodes[j], need)
		nodes = append(nodes[:j], nodes[j+1:]...)
	}

	// Sum out letters absent from the output, then permute to output order.
	res := symSumOut(nodes[0], letterSet(output))
	switch {
	case res.subs == output && res.slot < p.nIn:
		// Identity spec: the result is an operand; clone so the caller
		// never receives aliased input data.
		res = symNode{res.subs, emit(planOp{kind: opClone, src: res.slot, shape: res.shape}), res.shape}
	case res.subs != output:
		perm := make([]int, len(output))
		for i := 0; i < len(output); i++ {
			q := strings.IndexByte(res.subs, output[i])
			if q < 0 {
				return nil, fmt.Errorf("einsum %q: internal error, letter %q lost", spec, string(output[i]))
			}
			perm[i] = q
		}
		res = symTranspose(res, perm)
	}
	p.out = res.slot
	p.nSlots = p.nIn + len(p.ops)
	p.fuse()
	p.initScratch()
	return p, nil
}

// fuse merges each short-k GEMM with the transpose that immediately
// consumes its result into one scatter-store op. The product's flat
// (t, i, j) index decomposes exactly into the batch, freeA, and freeB
// axis groups of its logical shape, so the permuted destination offset
// splits into three additive tables computed here once. Fusing skips
// materializing (and zeroing) the whole intermediate product: the
// double-layer PEPS merge — a k=2 GEMM followed by a full-size
// interleaving transpose — collapses to one pass.
func (p *Plan) fuse() {
	for i := 0; i+1 < len(p.ops); i++ {
		g := p.ops[i]
		t := p.ops[i+1]
		if g.kind != opGEMM || t.kind != opTranspose || t.src != g.dst || g.dst == p.out {
			continue
		}
		if g.m >= 4 && g.k >= 8 {
			// The packed-panel kernel keeps its dense writeback; fusion
			// only pays where the GEMM streams whole rows anyway.
			continue
		}
		consumed := false
		for j := i + 2; j < len(p.ops); j++ {
			o := p.ops[j]
			if o.src == g.dst || (o.kind == opGEMM && o.src2 == g.dst) {
				consumed = true
				break
			}
		}
		if consumed {
			continue
		}
		// Stride of each product axis in the transposed layout.
		ds := tensor.Strides(t.shape)
		axStride := make([]int, len(g.shape))
		for pos, a := range t.perm {
			axStride[a] = ds[pos]
		}
		fused := planOp{
			kind: opGEMMScatter, src: g.src, src2: g.src2, dst: t.dst,
			shape: t.shape, size: t.size, gemmShape: g.shape,
			perm: t.perm, move: t.move,
			batch: g.batch, m: g.m, n: g.n, k: g.k,
			bMap: offsetTable(g.shape[:g.axB], axStride[:g.axB]),
			iMap: offsetTable(g.shape[g.axB:g.axB+g.axM], axStride[g.axB:g.axB+g.axM]),
			jMap: offsetTable(g.shape[g.axB+g.axM:], axStride[g.axB+g.axM:]),
		}
		p.ops[i] = fused
		p.ops = append(p.ops[:i+1], p.ops[i+2:]...)
	}
}

// offsetTable enumerates the mixed-radix index space dims in row-major
// order, returning each index's offset under the given strides.
func offsetTable(dims, strides []int) []int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := make([]int, n)
	idx := make([]int, len(dims))
	off := 0
	for i := range out {
		out[i] = off
		for k := len(dims) - 1; k >= 0; k-- {
			idx[k]++
			off += strides[k]
			if idx[k] < dims[k] {
				break
			}
			off -= idx[k] * strides[k]
			idx[k] = 0
		}
	}
	return out
}

// frame is the recycled per-execution scratch: the value-slot table, the
// intermediate buffers with a Dense of every intermediate op's result
// shape pre-wrapped around its buffer, and the three matrix-view headers
// of every GEMM op, so a replay allocates nothing but its result. Entries
// of the output op stay nil: its buffer escapes to the caller and must be
// fresh every execution.
type frame struct {
	vals    []*tensor.Dense // slot table: operands, then every op result
	bufs    [][]complex128  // one per entry of Plan.bufSizes
	outs    []*tensor.Dense // per op: its result, wrapped around bufs[op.buf]
	a, b, c []*tensor.Dense // GEMM operand and result views, rebound per execution
}

// initScratch precomputes the executor's transpose strides and GEMM view
// shapes, and lays out the scratch frame.
func (p *Plan) initScratch() {
	for i := range p.ops {
		op := &p.ops[i]
		if op.kind == opTranspose {
			// Result axis i has extent shape[i] and is source axis perm[i].
			srcShape := make([]int, len(op.perm))
			for ax, q := range op.perm {
				srcShape[q] = op.shape[ax]
			}
			ss := tensor.Strides(srcShape)
			op.srcStride = make([]int, len(op.perm))
			for ax, q := range op.perm {
				op.srcStride[ax] = ss[q]
			}
		}
		if op.kind == opGEMM || op.kind == opGEMMScatter {
			op.aShape = []int{op.batch, op.m, op.k}
			op.bShape = []int{op.batch, op.k, op.n}
			op.cShape = []int{op.batch, op.m, op.n}
		}
		if op.dst == p.out {
			p.outBytes = int64(op.size) * bytesPerElem
		}
	}
	p.assignBuffers()
}

// assignBuffers maps every intermediate result to a frame buffer, giving
// a buffer to a new result once the one it held has been read for the
// last time. The tape is in SSA form, but few of its values are alive at
// once — a transpose is dead after the GEMM that consumes it — so a
// frame needs about the three largest intermediates, not all of them.
// Frames are retained (workers+1 per cached plan), so their size is what
// the plan cache costs in memory: on the two-layer IBMPS row absorptions
// at m = 16, r = 4 this takes the frames from 5.1-6.1 MB to 3.0-4.3 MB.
// The assignment
// depends on the tape alone, and the kernels overwrite their whole
// destination, so results do not depend on it.
func (p *Plan) assignBuffers() {
	lastRead := make([]int, p.nSlots) // index of the last op reading each slot
	for i, op := range p.ops {
		lastRead[op.src] = i
		if op.kind == opGEMM || op.kind == opGEMMScatter {
			lastRead[op.src2] = i
		}
	}
	var freeAfter []int // per buffer: the last op reading the value it holds
	for i := range p.ops {
		op := &p.ops[i]
		if op.dst == p.out {
			continue
		}
		// Among the buffers whose value died before this op (one read by
		// this op is still needed while it runs): the smallest that fits;
		// failing that the largest, which grows; failing that a new one.
		fit, largest := -1, -1
		for b, size := range p.bufSizes {
			if freeAfter[b] >= i {
				continue
			}
			if size >= op.size && (fit < 0 || size < p.bufSizes[fit]) {
				fit = b
			}
			if largest < 0 || size > p.bufSizes[largest] {
				largest = b
			}
		}
		best := fit
		if best < 0 {
			best = largest
		}
		if best < 0 {
			best = len(p.bufSizes)
			p.bufSizes = append(p.bufSizes, 0)
			freeAfter = append(freeAfter, 0)
		}
		p.bufSizes[best] = max(p.bufSizes[best], op.size)
		freeAfter[best] = lastRead[op.dst]
		op.buf = best
	}
	for _, size := range p.bufSizes {
		p.frameBytes += int64(size) * bytesPerElem
	}
}

// newFrame allocates one execution's scratch.
func (p *Plan) newFrame() *frame {
	n := len(p.ops)
	views := make([]*tensor.Dense, 4*n)
	f := &frame{
		vals: make([]*tensor.Dense, p.nSlots),
		bufs: make([][]complex128, len(p.bufSizes)),
		outs: views[:n:n],
		a:    views[n : 2*n : 2*n],
		b:    views[2*n : 3*n : 3*n],
		c:    views[3*n:],
	}
	for b, size := range p.bufSizes {
		f.bufs[b] = make([]complex128, size)
	}
	for i := range p.ops {
		op := &p.ops[i]
		if op.dst != p.out {
			f.outs[i] = tensor.Wrap(f.bufs[op.buf][:op.size], op.shape)
		}
		if op.kind == opGEMM || op.kind == opGEMMScatter {
			f.a[i] = tensor.View(op.aShape)
			f.b[i] = tensor.View(op.bShape)
		}
		if op.kind == opGEMM { // the scatter kernel takes its destination raw
			f.c[i] = tensor.View(op.cShape)
		}
	}
	return f
}

// release detaches everything the frame borrowed for one execution —
// the operands, the escaping result, whatever a replacement GEMM kernel
// returned — so a parked frame keeps only its own buffers alive, and
// returns it to the plan's free list.
func (p *Plan) release(f *frame) {
	clear(f.vals)
	for _, views := range [][]*tensor.Dense{f.a, f.b, f.c} {
		for _, v := range views {
			if v != nil {
				v.Rebind(nil)
			}
		}
	}
	p.frames.Put(f)
}

// Spec returns the einsum spec the plan was compiled from.
func (p *Plan) Spec() string { return p.spec }

// Cost returns the aggregate primitive-operation cost of one execution,
// known at compile time since it depends only on shapes.
func (p *Plan) Cost() Cost { return p.cost }

// Execute replays the plan against operands, whose shapes must match the
// shapes the plan was compiled for.
func (p *Plan) Execute(ops ...*tensor.Dense) (*tensor.Dense, error) {
	return p.execute(ops, Hooks{})
}

func (p *Plan) execute(ops []*tensor.Dense, h Hooks) (*tensor.Dense, error) {
	return p.executeInto(nil, ops, h)
}

// executeInto replays the tape. The result is the one tensor that
// escapes: its storage is allocated per execution, or is dst when the
// caller supplies it (ContractInto).
func (p *Plan) executeInto(dst []complex128, ops []*tensor.Dense, h Hooks) (*tensor.Dense, error) {
	if len(ops) != p.nIn {
		return nil, fmt.Errorf("einsum %q: plan compiled for %d operands, got %d", p.spec, p.nIn, len(ops))
	}
	for i, op := range ops {
		if !tensor.SameShape(op.Shape(), p.inShapes[i]) {
			return nil, fmt.Errorf("einsum %q: operand %d has shape %v, plan compiled for %v", p.spec, i, op.Shape(), p.inShapes[i])
		}
	}
	if dst != nil && int64(len(dst))*bytesPerElem < p.outBytes {
		return nil, fmt.Errorf("einsum %q: destination holds %d elements, result has %d", p.spec, len(dst), p.outBytes/bytesPerElem)
	}
	// Working-set accounting: the checked-out scratch frame plus the
	// result under construction count as live until the frame returns to
	// the free list (the result's share is released then too — past that
	// point it is the caller's tensor, not executor scratch).
	obs.TrackBytes(p.frameBytes + p.outBytes)
	fr, ok := p.frames.Get()
	if !ok {
		fr = p.newFrame()
	}
	vals := fr.vals
	copy(vals, ops)
	for i := range p.ops {
		op := &p.ops[i]
		w := fr.outs[i]
		if op.dst == p.out {
			out := dst
			if out == nil {
				out = make([]complex128, op.size)
			}
			w = tensor.Wrap(out[:op.size], op.shape)
		}
		buf := w.Data()
		switch op.kind {
		case opTranspose:
			if op.move > 0 && h.OnMove != nil {
				h.OnMove(op.move)
			}
			tensor.CopyPermuted(buf, vals[op.src].Data(), op.shape, op.srcStride)
			vals[op.dst] = w
		case opRowSum:
			src := vals[op.src].Data()
			tensor.AddFlops(int64(op.keptN) * int64(op.dropN))
			for r := 0; r < op.keptN; r++ {
				var s complex128
				row := src[r*op.dropN : (r+1)*op.dropN]
				for _, v := range row {
					s += v
				}
				buf[r] = s
			}
			vals[op.dst] = w
		case opGEMM:
			if h.OnGEMM != nil {
				h.OnGEMM(op.batch, op.m, op.n, op.k)
			}
			va, vb := fr.a[i], fr.b[i]
			va.Rebind(vals[op.src].Data())
			vb.Rebind(vals[op.src2].Data())
			if h.GEMM != nil {
				// Replacement kernels (the simulated distributed backend)
				// allocate their own result; the frame's buffer sits idle.
				vals[op.dst] = h.GEMM(va, vb).Reshape(op.shape...)
			} else {
				vc := fr.c[i]
				vc.Rebind(buf)
				tensor.BatchMatMulInto(vc, va, vb)
				vals[op.dst] = w
			}
		case opGEMMScatter:
			if h.OnGEMM != nil {
				h.OnGEMM(op.batch, op.m, op.n, op.k)
			}
			if op.move > 0 && h.OnMove != nil {
				h.OnMove(op.move)
			}
			va, vb := fr.a[i], fr.b[i]
			va.Rebind(vals[op.src].Data())
			vb.Rebind(vals[op.src2].Data())
			if h.GEMM != nil {
				// Replacement kernels produce the dense product; apply the
				// absorbed transpose as a separate pass.
				ct := h.GEMM(va, vb)
				tensor.TransposeInto(w, ct.Reshape(op.gemmShape...), op.perm...)
				vals[op.dst] = w
			} else {
				tensor.BatchMatMulScatter(buf, va, vb, op.bMap, op.iMap, op.jMap)
				vals[op.dst] = w
			}
		case opClone:
			copy(buf, vals[op.src].Data())
			vals[op.dst] = w
		}
	}
	out := vals[p.out]
	p.release(fr)
	obs.TrackBytes(-(p.frameBytes + p.outBytes))
	if h.OnContract != nil {
		h.OnContract(p.spec, p.cost)
	}
	return out, nil
}

// resolveDimsShapes is resolveDims over raw shapes instead of tensors.
func resolveDimsShapes(inputs []string, shapes [][]int) (map[byte]int, error) {
	dims := map[byte]int{}
	for i, subs := range inputs {
		if len(subs) != len(shapes[i]) {
			return nil, fmt.Errorf("operand %d has rank %d but subscript %q has %d letters", i, len(shapes[i]), subs, len(subs))
		}
		for j := 0; j < len(subs); j++ {
			c := subs[j]
			d := shapes[i][j]
			if prev, ok := dims[c]; ok && prev != d {
				return nil, fmt.Errorf("letter %q has conflicting dimensions %d and %d", string(c), prev, d)
			}
			dims[c] = d
		}
	}
	return dims, nil
}
