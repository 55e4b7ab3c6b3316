// Package peps implements projected entangled pair states on an open
// square lattice — the paper's primary contribution. It provides the
// evolution primitives (one- and two-site operator application, directly
// or via the QR-SVD update of paper Algorithm 1), the contraction
// algorithms (exact, boundary-MPS with explicit SVD = BMPS, with implicit
// randomized SVD = IBMPS, and the two-layer IBMPS variant), and the
// intermediate-caching expectation-value strategy of paper section IV-B.
//
// Site tensors use the axis order [up, left, down, right, phys]; boundary
// bonds have dimension one. Sites are addressed by (row, col) with row 0
// at the top, and flattened site indices are row*Cols + col, matching the
// paper's operator-site numbering.
package peps

import (
	"fmt"
	"math"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// PEPS is a 2-D tensor network state of dense site tensors (see lattice
// for the fields and addressing it shares with SymPEPS).
type PEPS struct {
	lattice[*tensor.Dense]
	eng backend.Engine
}

// with returns a state on the same engine and scale holding the given
// site grid.
func (p *PEPS) with(sites [][]*tensor.Dense) *PEPS {
	return &PEPS{lattice: gridOf(sites, p.LogScale), eng: p.eng}
}

// on returns p computing through eng: the same sites (shared, not copied)
// and scale. It is how a span handle reaches the methods that read p.eng:
// a method that opens a span, and a task handed one, continue on the
// state bound to the engine that carries it.
func (p *PEPS) on(eng backend.Engine) *PEPS {
	q := *p
	q.eng = eng
	return &q
}

// scope opens a span named name under the one p's engine carries and
// returns p bound to it (see backend.Scope); p itself while untraced.
// States built from the returned one inherit the span, so it must End
// after the last of them is used.
func (p *PEPS) scope(name string) (*PEPS, *obs.Span) {
	eng, sp := backend.Scope(p.eng, name)
	if sp == nil {
		return p, nil
	}
	return p.on(eng), sp
}

// fanOut runs body(0..n-1) as one pool task group under the span eng
// carries, handing each body eng bound to its task span.
func fanOut(eng backend.Engine, name string, n int, body func(i int, eng backend.Engine)) {
	pool.Tasks(backend.SpanOf(eng), name, n, func(i int, task *obs.Span) {
		body(i, backend.Under(eng, task))
	})
}

// New wraps a grid of site tensors after validating shapes and bond
// consistency.
func New(eng backend.Engine, sites [][]*tensor.Dense) *PEPS {
	rows := len(sites)
	if rows == 0 || len(sites[0]) == 0 {
		panic("peps: empty lattice")
	}
	p := &PEPS{lattice: gridOf(sites, 0), eng: eng}
	if err := p.checkValid(); err != nil {
		panic(err.Error())
	}
	return p
}

// checkValid verifies lattice shape and bond consistency: boundary bonds
// of dimension one, equal dimensions across every shared bond.
func (p *PEPS) checkValid() error {
	return p.lattice.checkValid(
		func(t *tensor.Dense, axis int) bool { return t.Dim(axis) == 1 },
		func(a *tensor.Dense, axisA int, b *tensor.Dense, axisB int) bool { return a.Dim(axisA) == b.Dim(axisB) })
}

// Engine returns the backend engine the state computes with.
func (p *PEPS) Engine() backend.Engine { return p.eng }

// Clone returns a deep copy of the state.
func (p *PEPS) Clone() *PEPS {
	return &PEPS{lattice: p.cloned(), eng: p.eng}
}

// ShallowClone copies the site grid but shares the tensors; used when only
// a few sites will be replaced (operator-application copies).
func (p *PEPS) ShallowClone() *PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := range sites {
		sites[r] = append([]*tensor.Dense{}, p.sites[r]...)
	}
	return p.with(sites)
}

// ComputationalZeros returns the product state |0...0> on a rows-by-cols
// lattice (all bond dimensions one), matching the paper's
// peps.computational_zeros.
func ComputationalZeros(eng backend.Engine, rows, cols int) *PEPS {
	return ComputationalBasis(eng, rows, cols, nil)
}

// ComputationalBasis returns the basis product state with the given bits
// in row-major order; nil means all zeros.
func ComputationalBasis(eng backend.Engine, rows, cols int, bits []int) *PEPS {
	if bits != nil && len(bits) != rows*cols {
		panic(fmt.Sprintf("peps: %d bits for %d sites", len(bits), rows*cols))
	}
	sites := make([][]*tensor.Dense, rows)
	for r := range sites {
		sites[r] = make([]*tensor.Dense, cols)
		for c := range sites[r] {
			t := tensor.New(1, 1, 1, 1, 2)
			b := 0
			if bits != nil {
				b = bits[r*cols+c] & 1
			}
			t.Set(1, 0, 0, 0, 0, b)
			sites[r][c] = t
		}
	}
	return New(eng, sites)
}

// Random returns a random PEPS with physical dimension d and uniform
// interior bond dimension bond.
func Random(eng backend.Engine, rng *rand.Rand, rows, cols, d, bond int) *PEPS {
	sites := make([][]*tensor.Dense, rows)
	dim := func(interior bool) int {
		if interior {
			return bond
		}
		return 1
	}
	for r := range sites {
		sites[r] = make([]*tensor.Dense, cols)
		for c := range sites[r] {
			u := dim(r > 0)
			l := dim(c > 0)
			dn := dim(r < rows-1)
			rt := dim(c < cols-1)
			t := tensor.Rand(rng, u, l, dn, rt, d)
			// Scale entries so contractions stay O(1) in magnitude.
			t.ScaleInPlace(complex(1/math.Sqrt(float64(u*l*dn*rt*d)), 0))
			sites[r][c] = t
		}
	}
	return New(eng, sites)
}

// RandomNoPhys returns a random PEPS without physical indices (physical
// dimension one), the workload of the paper's contraction benchmarks
// (Figure 8, Figure 11/12 contraction series).
func RandomNoPhys(eng backend.Engine, rng *rand.Rand, rows, cols, bond int) *PEPS {
	return Random(eng, rng, rows, cols, 1, bond)
}

// ApplyOneSite applies a 2x2 (more generally d'-by-d) one-site operator
// to the given site in place (paper equation 3).
func (p *PEPS) ApplyOneSite(g *tensor.Dense, site int) {
	applyOneSite(&p.lattice, p.eng.Einsum, g, site)
}

// Project contracts each site's physical leg with the corresponding basis
// vector <bit| and returns the resulting one-layer (physical-dimension-1)
// PEPS. Used to evaluate amplitudes <i|psi> (paper section II-C2).
func (p *PEPS) Project(bits []int) *PEPS {
	if len(bits) != p.Rows*p.Cols {
		panic(fmt.Sprintf("peps: %d bits for %d sites", len(bits), p.Rows*p.Cols))
	}
	out := p.ShallowClone()
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t := p.sites[r][c]
			d := t.Dim(4)
			v := tensor.New(d)
			b := bits[r*p.Cols+c]
			if b < 0 || b >= d {
				panic(fmt.Sprintf("peps: bit %d out of physical range %d", b, d))
			}
			v.Set(1, b)
			proj := p.eng.Einsum("uldrp,p->uldr", t, v)
			sh := proj.Shape()
			out.sites[r][c] = proj.Reshape(sh[0], sh[1], sh[2], sh[3], 1)
		}
	}
	return out
}

// TransposeLattice returns the state reflected about the main diagonal:
// rows become columns and each site's up/left and down/right legs swap.
// Contracting the transposed network top-to-bottom equals contracting
// the original left-to-right, which is how column-wise boundary
// contraction is exposed.
func (p *PEPS) TransposeLattice() *PEPS {
	sites := make([][]*tensor.Dense, p.Cols)
	for c := 0; c < p.Cols; c++ {
		sites[c] = make([]*tensor.Dense, p.Rows)
		for r := 0; r < p.Rows; r++ {
			// [u,l,d,r,p] -> [l,u,r,d,p]
			sites[c][r] = p.sites[r][c].Transpose(1, 0, 3, 2, 4)
		}
	}
	return p.with(sites)
}

// FlipVertical returns the state reflected about the horizontal axis:
// row order reversed and up/down legs swapped. Environments from below
// are computed as environments from above of the flipped state.
func (p *PEPS) FlipVertical() *PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := 0; r < p.Rows; r++ {
		sites[r] = make([]*tensor.Dense, p.Cols)
		for c := 0; c < p.Cols; c++ {
			sites[r][c] = p.sites[p.Rows-1-r][c].Transpose(2, 1, 0, 3, 4)
		}
	}
	return p.with(sites)
}
