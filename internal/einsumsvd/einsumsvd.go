// Package einsumsvd implements the paper's central software abstraction:
// contracting a tensor network into one tensor and refactorizing it into
// two tensors joined by a single new (truncated) bond index
// (paper section II-C, Figure 2).
//
// A spec extends einsum syntax with a split output:
//
//	"gbd,bpe,dqpf->gqx|xef"
//
// means: contract the three operands, then factor the result so the first
// output tensor carries subscript "gqx" and the second "xef", where "x"
// is the new bond shared by exactly the two outputs (it must not appear in
// the inputs). Letters that appear in inputs but in neither output are
// contracted/summed away as in plain einsum.
//
// Two strategies implement the abstraction:
//
//   - Explicit: contract fully, matricize, truncated SVD — the standard
//     approach.
//   - ImplicitRand: never form the contracted tensor; run randomized SVD
//     (paper Algorithm 4) applying the uncontracted network as an implicit
//     operator. This is what turns BMPS into IBMPS and gives the
//     asymptotic savings of paper Table II.
//
// A third, Priced, runs whichever of the two its cost model prices lower
// for the operand shapes at hand; it is the applications' default.
package einsumsvd

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// SigmaMode controls where the singular values go.
type SigmaMode int

const (
	// SigmaRight multiplies diag(s) into the second factor (zip-up
	// convention: the first factor is an isometry).
	SigmaRight SigmaMode = iota
	// SigmaLeft multiplies diag(s) into the first factor.
	SigmaLeft
	// SigmaBoth splits diag(sqrt(s)) into each factor (simple-update
	// convention, keeping the two site tensors balanced).
	SigmaBoth
	// SigmaNone attaches the singular values to neither factor: the first
	// factor is the isometry U and the second is V*; callers use the
	// returned singular values themselves (weighted simple update keeps
	// them as bond weights).
	SigmaNone
)

// Strategy factors a contracted network into two tensors.
type Strategy interface {
	// Name identifies the strategy in benchmark output.
	Name() string
	// Factor evaluates the split spec over the operands with the given
	// truncation rank. It returns the two factors (shaped per the output
	// subscripts) and the retained singular values.
	Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (a, b *tensor.Dense, s []float64, err error)
}

// Explicit contracts the network and computes a truncated SVD.
type Explicit struct {
	Mode SigmaMode
}

func (e Explicit) Name() string { return "explicit-svd" }

// ImplicitRand applies the network as an implicit operator inside
// randomized SVD (paper Algorithm 4). Every factorization is followed by
// a deterministic subspace probe (linalg.RandSVDReport); when the probe
// residual exceeds FallbackTol the randomized factors are discarded and
// the spec is re-factored through the exact Explicit path, counted in
// health.svd_fallbacks. Graceful degradation: the result is then the one
// the paper's baseline algorithm would have produced.
type ImplicitRand struct {
	Mode SigmaMode
	// NIter is the number of orthogonal-iteration rounds (default 1).
	NIter int
	// Oversample adds sketch columns truncated away at the end (default 4).
	Oversample int
	// Rng supplies the sketch; required.
	Rng *rand.Rand
	// FallbackTol is the probe-residual threshold beyond which the
	// factorization degrades to the exact path. Zero selects
	// health.DefaultSubspaceTol; negative disables the fallback (the
	// probe still runs and non-convergence is still visible in the
	// returned report counters).
	FallbackTol float64
	// Sketch32 computes the sketch and power-iteration contractions in
	// complex64 (the -f32-sketch CLI option). The subspace probe and the
	// final projection stay complex128, and the probe-driven fallback
	// above guards against precision-degraded sketches; on engines
	// without a mixed-precision path the option is a no-op.
	Sketch32 bool
}

func (ImplicitRand) Name() string { return "implicit-rsvd" }

// Priced factors each split through Explicit{Mode} or through the
// embedded ImplicitRand, whichever the cost model (splitSpec.sketchPays)
// prices lower for the operand shapes, rank and sketch parameters at
// hand. Randomization pays only when the sketch is much narrower than the
// operator (Halko, Martinsson and Tropp 2011): at Fig. 13's sizes forming
// the operator and taking its exact SVD is cheaper, while Table II's wide
// networks keep the sketch. Either branch is bit-identical to the
// strategy it runs; the form branch leaves Rng untouched. It is the nil
// default of the applications (ite, vqe, the koala facade, koala-ite);
// the figure suites construct Explicit or ImplicitRand themselves, so
// they still compare the two algorithms.
type Priced struct {
	ImplicitRand
}

func (Priced) Name() string { return "priced-svd" }

// MustFactor is a panic-on-error convenience for specs that are constants
// in library code.
func MustFactor(st Strategy, eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64) {
	a, b, s, err := st.Factor(eng, spec, rank, ops...)
	if err != nil {
		panic("einsumsvd: " + err.Error())
	}
	return a, b, s
}

// TruncReporter is an optional Strategy capability, in the manner of
// backend.MixedContractor: a Factor that also returns the truncation
// error of the split, the relative Frobenius weight ||M - A B|| / ||M||
// of the contracted network M that the rank cap discarded. It is a
// return value because it means something only for the decomposition
// that produced it — whoever asked for the split knows which bond it was.
// A strategy without the capability, such as a wrapper that forwards
// Factor, reports TruncUnknown through MustFactorTrunc.
type TruncReporter interface {
	FactorTrunc(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (a, b *tensor.Dense, s []float64, truncErr float64, err error)
}

// TruncUnknown is the truncation error of a factorization that does not
// report one. Reported errors are never negative.
const TruncUnknown = -1.0

// MustFactorTrunc is MustFactor plus the truncation error, TruncUnknown
// when st is not a TruncReporter.
func MustFactorTrunc(st Strategy, eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64) {
	tr, ok := st.(TruncReporter)
	if !ok {
		a, b, s := MustFactor(st, eng, spec, rank, ops...)
		return a, b, s, TruncUnknown
	}
	a, b, s, te, err := tr.FactorTrunc(eng, spec, rank, ops...)
	if err != nil {
		panic("einsumsvd: " + err.Error())
	}
	return a, b, s, te
}

// discardedWeight is the relative truncation error of keeping singular
// values s of a matrix of Frobenius norm norm: sqrt(1 - sum s^2/norm^2),
// one pass over data the factorization holds anyway. Like
// linalg.TruncError's all-minus-kept it cancels near zero, so an exact
// split reads up to sqrt(eps) ~ 1e-8 rather than 0.
func discardedWeight(s []float64, norm float64) float64 {
	if norm == 0 {
		return 0
	}
	var kept float64
	for _, x := range s {
		kept += x * x
	}
	return math.Sqrt(math.Max(0, 1-kept/(norm*norm)))
}

// splitSpec holds the compiled form of a split spec for one set of
// operand shapes. It is shared by every Factor call of that signature;
// everything but the operator plans is fixed when parse returns.
type splitSpec struct {
	subs       []string     // input subscripts
	dims       map[byte]int // letter -> dimension
	out1, out2 string       // output subscripts including the new letter
	newLetter  byte
	row, col   string // out1/out2 with the new letter removed
	rowDims    []int
	colDims    []int
	rowSize    int
	colSize    int

	// fullSpec is the contraction to the row|col matricization the
	// explicit path evaluates. The implicit path applies the network to
	// block vectors whose column index is carried by blockLetter, a letter
	// the spec leaves free, through the contractions of an operatorPlan
	// chosen per sketch width and iteration count (operator.go).
	fullSpec    string
	blockLetter byte

	planMu sync.Mutex
	plans  map[planKey]*operatorPlan
	pays   map[priceKey]bool // Priced's memoized choices (sketchPays)
}

func shapesOf[T interface{ Shape() []int }](ops []T) [][]int {
	shapes := make([][]int, len(ops))
	for i, op := range ops {
		shapes[i] = op.Shape()
	}
	return shapes
}

// splitSpecs memoizes parse per (spec, operand shapes), the key the
// einsum plan cache uses for the contractions a split spec lowers to: a
// boundary sweep factors the same handful of signatures thousands of
// times. It is emptied with the plan cache (einsum.ResetPlanCache) and
// when it reaches the plan cache's default size.
var (
	splitMu    sync.Mutex
	splitSpecs = map[string]*splitSpec{}
)

func init() {
	einsum.OnResetPlanCache(func() {
		splitMu.Lock()
		clear(splitSpecs)
		splitMu.Unlock()
	})
}

// compiled returns the split spec for the given operand shapes from the
// cache, parsing it on a miss. Dense and block-sparse Factor share it;
// for block-sparse operands the shapes are the per-leg total dimensions.
func compiled(spec string, shapes [][]int) (*splitSpec, error) {
	var arr [128]byte
	key := append(arr[:0], spec...)
	for _, sh := range shapes {
		key = append(key, '|')
		for _, d := range sh {
			key = append(strconv.AppendInt(key, int64(d), 10), ',')
		}
	}
	splitMu.Lock()
	p, ok := splitSpecs[string(key)]
	splitMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := parse(spec, shapes)
	if err != nil {
		return nil, err
	}
	splitMu.Lock()
	if len(splitSpecs) >= einsum.DefaultPlanCacheSize {
		clear(splitSpecs)
	}
	splitSpecs[string(key)] = p
	splitMu.Unlock()
	return p, nil
}

// parse works from operand shapes alone (see compiled).
func parse(spec string, shapes [][]int) (*splitSpec, error) {
	arrow := strings.Index(spec, "->")
	if arrow < 0 {
		return nil, fmt.Errorf("spec %q missing \"->\"", spec)
	}
	inputs := spec[:arrow]
	outs := strings.Split(spec[arrow+2:], "|")
	if len(outs) != 2 {
		return nil, fmt.Errorf("spec %q must have exactly two outputs separated by |", spec)
	}
	out1, out2 := strings.TrimSpace(outs[0]), strings.TrimSpace(outs[1])

	inLetters := map[byte]bool{}
	subsList := strings.Split(inputs, ",")
	if len(subsList) != len(shapes) {
		return nil, fmt.Errorf("spec %q has %d inputs but %d operands", spec, len(subsList), len(shapes))
	}
	dims := map[byte]int{}
	for i, subs := range subsList {
		subs = strings.TrimSpace(subs)
		subsList[i] = subs
		if len(subs) != len(shapes[i]) {
			return nil, fmt.Errorf("operand %d rank %d does not match subscript %q", i, len(shapes[i]), subs)
		}
		for j := 0; j < len(subs); j++ {
			c := subs[j]
			inLetters[c] = true
			d := shapes[i][j]
			if prev, ok := dims[c]; ok && prev != d {
				return nil, fmt.Errorf("letter %q has conflicting dimensions %d and %d", string(c), prev, d)
			}
			dims[c] = d
		}
	}

	// Identify the new letter: in both outputs, not in inputs.
	var newLetter byte
	set1 := map[byte]bool{}
	for i := 0; i < len(out1); i++ {
		set1[out1[i]] = true
	}
	for i := 0; i < len(out2); i++ {
		c := out2[i]
		if set1[c] {
			if inLetters[c] {
				return nil, fmt.Errorf("shared output letter %q also appears in inputs", string(c))
			}
			if newLetter != 0 {
				return nil, fmt.Errorf("outputs share more than one new letter")
			}
			newLetter = c
		}
	}
	if newLetter == 0 {
		return nil, fmt.Errorf("outputs %q and %q share no new letter", out1, out2)
	}
	strip := func(s string) string {
		return strings.ReplaceAll(s, string(newLetter), "")
	}
	row, col := strip(out1), strip(out2)
	for i := 0; i < len(row); i++ {
		if !inLetters[row[i]] {
			return nil, fmt.Errorf("output letter %q not found in inputs", string(row[i]))
		}
	}
	for i := 0; i < len(col); i++ {
		if !inLetters[col[i]] {
			return nil, fmt.Errorf("output letter %q not found in inputs", string(col[i]))
		}
	}

	p := &splitSpec{subs: subsList, dims: dims, out1: out1, out2: out2, newLetter: newLetter, row: row, col: col}
	p.rowSize, p.colSize = 1, 1
	for i := 0; i < len(row); i++ {
		d := dims[row[i]]
		p.rowDims = append(p.rowDims, d)
		p.rowSize *= d
	}
	for i := 0; i < len(col); i++ {
		d := dims[col[i]]
		p.colDims = append(p.colDims, d)
		p.colSize *= d
	}
	// Find a free letter for the block-vector column index.
	used := map[byte]bool{newLetter: true}
	for c := range inLetters {
		used[c] = true
	}
	var free byte
	for _, c := range []byte("zyxwvutsrqponmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA") {
		if !used[c] {
			free = c
			break
		}
	}
	if free == 0 {
		return nil, fmt.Errorf("no free subscript letter available")
	}
	p.fullSpec = inputs + "->" + row + col
	p.blockLetter = free
	return p, nil
}

// scales returns the per-bond-index factors the mode puts on the first
// and on the second factor of a split with singular values s.
func (mode SigmaMode) scales(s []float64) (uScale, vScale []float64) {
	k := len(s)
	switch mode {
	case SigmaRight:
		return ones(k), s
	case SigmaLeft:
		return s, ones(k)
	case SigmaBoth:
		root := make([]float64, k)
		for i, x := range s {
			root[i] = math.Sqrt(x)
		}
		return root, root
	default: // SigmaNone
		return ones(k), ones(k)
	}
}

// assemble folds the U factor (rowSize x k) and the sigma-carrying V
// factor into tensors shaped per out1/out2, applying the sigma mode.
func (p *splitSpec) assemble(eng backend.Engine, u *tensor.Dense, s []float64, v *tensor.Dense, mode SigmaMode) (*tensor.Dense, *tensor.Dense) {
	k := len(s)
	uScale, vScale := mode.scales(s)
	// A0[row..., k] = U * diag(uScale)
	a0 := u.Clone()
	ad := a0.Data()
	for i := 0; i < p.rowSize; i++ {
		for j := 0; j < k; j++ {
			ad[i*k+j] *= complex(uScale[j], 0)
		}
	}
	// B0[k, col...] = diag(vScale) * V^H
	b0 := tensor.New(k, p.colSize)
	bd := b0.Data()
	vd := v.Data()
	for j := 0; j < k; j++ {
		sc := complex(vScale[j], 0)
		for i := 0; i < p.colSize; i++ {
			x := vd[i*k+j]
			bd[j*p.colSize+i] = sc * complex(real(x), -imag(x))
		}
	}
	aShape := append(append([]int{}, p.rowDims...), k)
	bShape := append([]int{k}, p.colDims...)
	a := a0.Reshape(aShape...)
	b := b0.Reshape(bShape...)
	// Permute to the requested output orders.
	a = permuteTo(a, p.row+string(p.newLetter), p.out1)
	b = permuteTo(b, string(p.newLetter)+p.col, p.out2)
	return a, b
}

func ones(k int) []float64 {
	o := make([]float64, k)
	for i := range o {
		o[i] = 1
	}
	return o
}

// permuteTo transposes t (whose axes are labeled by from) into the axis
// order given by to.
func permuteTo[T interface{ Transpose(perm ...int) T }](t T, from, to string) T {
	if from == to {
		return t
	}
	perm := make([]int, len(to))
	for i := 0; i < len(to); i++ {
		p := strings.IndexByte(from, to[i])
		if p < 0 {
			panic(fmt.Sprintf("einsumsvd: internal label mismatch %q vs %q", from, to))
		}
		perm[i] = p
	}
	return t.Transpose(perm...)
}

// Factor implements Strategy for the explicit contract-then-SVD path.
func (e Explicit) Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, error) {
	a, b, s, _, err := e.factor(false, eng, spec, rank, ops)
	return a, b, s, err
}

// FactorTrunc implements TruncReporter: the explicit path holds the
// matrix it truncates.
func (e Explicit) FactorTrunc(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64, error) {
	return e.factor(true, eng, spec, rank, ops)
}

func (e Explicit) factor(wantErr bool, eng backend.Engine, spec string, rank int, ops []*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64, error) {
	p, err := compiled(spec, shapesOf(ops))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	a, b, s, te := p.explicit(wantErr, eng, rank, ops, e.Mode)
	return a, b, s, te, nil
}

// explicit is the contract-then-SVD path over a compiled spec; the
// truncation error is TruncUnknown unless wantErr.
func (p *splitSpec) explicit(wantErr bool, eng backend.Engine, rank int, ops []*tensor.Dense, mode SigmaMode) (*tensor.Dense, *tensor.Dense, []float64, float64) {
	full := eng.Einsum(p.fullSpec, ops...)
	u, s, v := eng.TruncSVD(full.Reshape(p.rowSize, p.colSize), rank)
	te := TruncUnknown
	if wantErr {
		te = discardedWeight(s, full.Norm())
	}
	a, b := p.assemble(eng, u, s, v, mode)
	return a, b, s, te
}

// Factor implements Strategy for the implicit randomized-SVD path.
func (ir ImplicitRand) Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, error) {
	a, b, s, _, err := ir.factor(false, eng, spec, rank, ops)
	return a, b, s, err
}

// FactorTrunc implements TruncReporter. A sketch never holds the
// operator, so its truncation error is TruncUnknown; the exact fallback
// holds it and reports it.
func (ir ImplicitRand) FactorTrunc(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64, error) {
	return ir.factor(true, eng, spec, rank, ops)
}

func (ir ImplicitRand) factor(wantErr bool, eng backend.Engine, spec string, rank int, ops []*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64, error) {
	if ir.Rng == nil {
		return nil, nil, nil, 0, fmt.Errorf("ImplicitRand requires a Rng")
	}
	p, err := compiled(spec, shapesOf(ops))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	nIter, oversample := ir.params()
	a, b, s, te := ir.sketch(wantErr, eng, p, rank, nIter, oversample, ops)
	return a, b, s, te, nil
}

// params returns NIter and Oversample with their defaults applied.
func (ir ImplicitRand) params() (nIter, oversample int) {
	nIter, oversample = ir.NIter, ir.Oversample
	if nIter == 0 {
		nIter = 1
	}
	if oversample == 0 {
		oversample = 4
	}
	return nIter, oversample
}

// sketch is the randomized path over a compiled spec.
func (ir ImplicitRand) sketch(wantErr bool, eng backend.Engine, p *splitSpec, rank, nIter, oversample int, ops []*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64) {
	width := linalg.SketchWidth(rank, oversample, p.rowSize, p.colSize)
	op := newNetworkOperator(eng, p, p.operatorPlan(width, nIter), ops)
	u, s, v, rep := backend.RandSVDChecked(eng, op, rank, nIter, oversample, ir.Rng, ir.FallbackTol, ir.Sketch32)
	op.release()
	if !rep.Converged && ir.FallbackTol >= 0 {
		// The sketch missed too much of the operator: degrade to the
		// exact contract-then-SVD path. The probe and this decision are
		// deterministic (the probe rng never touches ir.Rng), so the
		// fallback fires identically at any worker count.
		health.CountSVDFallback()
		return p.explicit(wantErr, eng, rank, ops, ir.Mode)
	}
	a, b := p.assemble(eng, u, s, v, ir.Mode)
	return a, b, s, TruncUnknown
}

// Factor implements Strategy: Explicit{Mode} or the embedded
// ImplicitRand, whichever is priced lower.
func (pr Priced) Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, error) {
	a, b, s, _, err := pr.factor(false, eng, spec, rank, ops)
	return a, b, s, err
}

// FactorTrunc implements TruncReporter: the form branch reports the
// discarded weight, the sketch branch as ImplicitRand does.
func (pr Priced) FactorTrunc(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64, error) {
	return pr.factor(true, eng, spec, rank, ops)
}

func (pr Priced) factor(wantErr bool, eng backend.Engine, spec string, rank int, ops []*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, float64, error) {
	if pr.Rng == nil {
		return nil, nil, nil, 0, fmt.Errorf("Priced requires a Rng")
	}
	p, err := compiled(spec, shapesOf(ops))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	nIter, oversample := pr.params()
	if !p.sketchPays(rank, linalg.SketchWidth(rank, oversample, p.rowSize, p.colSize), nIter) {
		a, b, s, te := p.explicit(wantErr, eng, rank, ops, pr.Mode)
		return a, b, s, te, nil
	}
	a, b, s, te := pr.sketch(wantErr, eng, p, rank, nIter, oversample, ops)
	return a, b, s, te, nil
}
