package peps

import (
	"fmt"
	"math"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// SimpleUpdate augments a PEPS with per-bond weight vectors — the lambda
// matrices of the Jiang-Weng-Xiang simple-update scheme the paper's
// two-site update is a variant of (its reference [24]). Keeping the
// weights as an explicit mean-field environment improves the accuracy of
// truncated imaginary-time evolution over the plain per-bond update at
// identical cost.
//
// Invariant: the represented state is the PEPS with sqrt(weight) absorbed
// into each side of every interior bond (see Absorb).
type SimpleUpdate struct {
	State *PEPS
	// HW[r][c] weights bond (r,c)-(r,c+1); VW[r][c] weights (r,c)-(r+1,c).
	HW [][][]float64
	VW [][][]float64
}

// NewSimpleUpdate wraps a state with unit bond weights.
func NewSimpleUpdate(p *PEPS) *SimpleUpdate {
	su := &SimpleUpdate{State: p}
	su.HW = make([][][]float64, p.Rows)
	for r := 0; r < p.Rows; r++ {
		su.HW[r] = make([][]float64, p.Cols-1)
		for c := 0; c+1 < p.Cols; c++ {
			su.HW[r][c] = onesf(p.Site(r, c).Dim(3))
		}
	}
	su.VW = make([][][]float64, p.Rows-1)
	for r := 0; r+1 < p.Rows; r++ {
		su.VW[r] = make([][]float64, p.Cols)
		for c := 0; c < p.Cols; c++ {
			su.VW[r][c] = onesf(p.Site(r, c).Dim(2))
		}
	}
	return su
}

func onesf(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Absorb returns a plain PEPS representing the state: sqrt(weight)
// multiplied into each side of every interior bond. Use it for
// measurements (expectation values, amplitudes, norms).
func (su *SimpleUpdate) Absorb() *PEPS {
	out := su.State.Clone()
	for r := 0; r < out.Rows; r++ {
		for c := 0; c+1 < out.Cols; c++ {
			w := sqrtw(su.HW[r][c])
			out.SetSite(r, c, scaleAxis(out.Site(r, c), 3, w, false))
			out.SetSite(r, c+1, scaleAxis(out.Site(r, c+1), 1, w, false))
		}
	}
	for r := 0; r+1 < out.Rows; r++ {
		for c := 0; c < out.Cols; c++ {
			w := sqrtw(su.VW[r][c])
			out.SetSite(r, c, scaleAxis(out.Site(r, c), 2, w, false))
			out.SetSite(r+1, c, scaleAxis(out.Site(r+1, c), 0, w, false))
		}
	}
	return out
}

func sqrtw(w []float64) []float64 {
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = math.Sqrt(v)
	}
	return out
}

// scaleAxis multiplies (or, with invert, divides) a tensor along one axis
// by a weight vector. Weights below weightFloor are clamped when
// inverting so dead directions do not produce Inf.
func scaleAxis(t *tensor.Dense, axis int, w []float64, invert bool) *tensor.Dense {
	if t.Dim(axis) != len(w) {
		panic(fmt.Sprintf("peps: weight length %d does not match axis dim %d", len(w), t.Dim(axis)))
	}
	const weightFloor = 1e-12
	factors := make([]complex128, len(w))
	for i, v := range w {
		if invert {
			if v < weightFloor {
				v = weightFloor
			}
			factors[i] = complex(1/v, 0)
		} else {
			factors[i] = complex(v, 0)
		}
	}
	out := t.Clone()
	shape := t.Shape()
	inner := 1
	for i := axis + 1; i < len(shape); i++ {
		inner *= shape[i]
	}
	outer := t.Size() / (inner * shape[axis])
	d := out.Data()
	idx := 0
	for o := 0; o < outer; o++ {
		for a := 0; a < shape[axis]; a++ {
			f := factors[a]
			for i := 0; i < inner; i++ {
				d[idx] *= f
				idx++
			}
		}
	}
	return out
}

// ApplyGate applies a one- or two-site gate with weighted truncation.
// Non-adjacent pairs are routed with SWAP chains like the plain update.
func (su *SimpleUpdate) ApplyGate(g quantum.TrotterGate, rank int, st einsumsvd.Strategy) {
	p := su.State
	// SigmaNone: the singular values come back as the new bond weights.
	u := newUpdater(&p.lattice, denseKernel{p.eng, withSigmaNone(st)}, "weighted-qr-svd", UpdateOptions{Rank: rank})
	u.step = func(g4 *tensor.Dense, d *bondDir, r, c int) float64 {
		envA, envB := su.absorbEnv(d, r, c)
		s, _ := u.bond(g4, d, r, c)
		su.storeWeights(d, r, c, s, envA, envB)
		return 0 // storeWeights folds the scale into LogScale itself
	}
	u.gate(g.Sites, g.Gate)
}

// ApplyCircuit applies a gate sequence.
func (su *SimpleUpdate) ApplyCircuit(gates []quantum.TrotterGate, rank int, st einsumsvd.Strategy) {
	for _, g := range gates {
		su.ApplyGate(g, rank, st)
	}
}

// envWeightsAt returns the weight vectors on a site's four legs (nil for
// boundary legs and for the excluded shared leg).
func (su *SimpleUpdate) envWeightsAt(r, c int, excludeAxis int) [4][]float64 {
	p := su.State
	var w [4][]float64
	if r > 0 {
		w[0] = su.VW[r-1][c]
	}
	if c > 0 {
		w[1] = su.HW[r][c-1]
	}
	if r+1 < p.Rows {
		w[2] = su.VW[r][c]
	}
	if c+1 < p.Cols {
		w[3] = su.HW[r][c]
	}
	if excludeAxis >= 0 {
		w[excludeAxis] = nil
	}
	return w
}

func applyEnvWeights(t *tensor.Dense, w [4][]float64, invert bool) *tensor.Dense {
	for axis := 0; axis < 4; axis++ {
		if w[axis] != nil {
			t = scaleAxis(t, axis, w[axis], invert)
		}
	}
	return t
}

// bondWeights returns the slot holding the weights of the d-bond whose
// first site is (r,c).
func (su *SimpleUpdate) bondWeights(d *bondDir, r, c int) *[]float64 {
	if d == horizontal {
		return &su.HW[r][c]
	}
	return &su.VW[r][c]
}

// absorbEnv is the hook before a bond update: it multiplies the
// lambda-weighted environment into both sites of the bond, and the shared
// lambda once into the first, and returns the environment weights for
// storeWeights to divide out again.
func (su *SimpleUpdate) absorbEnv(d *bondDir, r, c int) (envA, envB [4][]float64) {
	p := su.State
	rb, cb := r+d.dr, c+d.dc
	envA = su.envWeightsAt(r, c, d.axisA)
	envB = su.envWeightsAt(rb, cb, d.axisB)
	a := applyEnvWeights(p.Site(r, c), envA, false)
	p.SetSite(r, c, scaleAxis(a, d.axisA, *su.bondWeights(d, r, c), false))
	p.SetSite(rb, cb, applyEnvWeights(p.Site(rb, cb), envB, false))
	return envA, envB
}

// storeWeights is the hook after a bond update: the singular values
// become the bond's weights, the environment is divided back out of the
// two sites, and both are rescaled to unit norm.
func (su *SimpleUpdate) storeWeights(d *bondDir, r, c int, s []float64, envA, envB [4][]float64) {
	p := su.State
	rb, cb := r+d.dr, c+d.dc
	w, scale := normalizeWeights(s)
	*su.bondWeights(d, r, c) = w
	if scale > 0 {
		p.LogScale += math.Log(scale)
	}
	p.SetSite(r, c, applyEnvWeights(p.Site(r, c), envA, true))
	p.SetSite(rb, cb, applyEnvWeights(p.Site(rb, cb), envB, true))
	p.normalizeSite(r, c)
	p.normalizeSite(rb, cb)
}

// withSigmaNone forces the strategy's sigma mode to SigmaNone.
func withSigmaNone(st einsumsvd.Strategy) einsumsvd.Strategy {
	switch v := st.(type) {
	case einsumsvd.Explicit:
		v.Mode = einsumsvd.SigmaNone
		return v
	case einsumsvd.ImplicitRand:
		v.Mode = einsumsvd.SigmaNone
		return v
	case nil:
		return einsumsvd.Explicit{Mode: einsumsvd.SigmaNone}
	default:
		return st
	}
}

// normalizeWeights rescales the weights to unit maximum, returning the
// removed factor so the caller can fold it into the state's LogScale
// (the bond weight enters the represented state exactly once).
func normalizeWeights(s []float64) ([]float64, float64) {
	out := append([]float64{}, s...)
	mx := 0.0
	for _, v := range out {
		if v > mx {
			mx = v
		}
	}
	if mx == 0 {
		return onesf(len(out)), 0
	}
	for i := range out {
		out[i] /= mx
	}
	return out, mx
}
