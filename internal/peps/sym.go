package peps

import (
	"fmt"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// SymPEPS is a PEPS whose site tensors are charge-carrying block-sparse
// tensors: every contraction and factorization touches only the charge
// sectors a conserving evolution can populate. The leg conventions of
// a fresh state are up/left ingoing (direction -1) and down/right/phys
// outgoing (+1) with the physical leg carrying charges {0, 1}; updates
// replace bond legs with new ones whose direction may differ, so
// validation only requires each shared bond to be dual between its two
// endpoints. The physics lives entirely in the charge bookkeeping —
// embedding every site to dense (ToDense) must reproduce the state a
// dense evolution of the same gates would have produced, which is what
// the randomized equivalence tests check.
type SymPEPS struct {
	lattice[*tensor.Sym]
	eng backend.SymEngine
}

// NewSymPEPS wraps a grid of block-sparse site tensors after validating
// lattice shape and bond duality.
func NewSymPEPS(eng backend.SymEngine, sites [][]*tensor.Sym) *SymPEPS {
	if len(sites) == 0 || len(sites[0]) == 0 {
		panic("peps: empty lattice")
	}
	p := &SymPEPS{lattice: gridOf(sites, 0), eng: eng}
	if err := p.checkValid(); err != nil {
		panic(err.Error())
	}
	return p
}

// trivialSymLeg is a one-sector, one-dimensional, charge-zero leg — the
// boundary bond.
func trivialSymLeg(dir int) tensor.Leg {
	return tensor.Leg{Dir: dir, Charges: []int{0}, Dims: []int{1}}
}

// PhysSymLeg is the physical qubit leg: charges {0, 1} with one state
// each. Under U(1) (mod 0) the charge counts |1> occupation; under Z2
// (mod 2) it is the bit parity.
func PhysSymLeg(dir int) tensor.Leg {
	return tensor.Leg{Dir: dir, Charges: []int{0, 1}, Dims: []int{1, 1}}
}

// checkValid verifies lattice shape, trivial boundary bonds, bond duality
// between neighbors, and one shared mod.
func (p *SymPEPS) checkValid() error {
	err := p.lattice.checkValid(
		func(t *tensor.Sym, axis int) bool {
			l := t.Leg(axis)
			return l.TotalDim() == 1 && l.NumSectors() == 1 && l.Charges[0] == 0
		},
		func(a *tensor.Sym, axisA int, b *tensor.Sym, axisB int) bool {
			return tensor.DualLegs(a.Leg(axisA), b.Leg(axisB))
		})
	if err != nil {
		return err
	}
	for r, row := range p.sites {
		for c, t := range row {
			if t.Mod() != p.Mod() {
				return fmt.Errorf("peps: site (%d,%d) has mod %d, want %d", r, c, t.Mod(), p.Mod())
			}
		}
	}
	return nil
}

// Engine returns the block-sparse backend engine.
func (p *SymPEPS) Engine() backend.SymEngine { return p.eng }

// Mod returns the symmetry group modulus (0 for U(1), n for Z_n).
func (p *SymPEPS) Mod() int { return p.sites[0][0].Mod() }

// Clone returns a deep copy of the state.
func (p *SymPEPS) Clone() *SymPEPS {
	return &SymPEPS{lattice: p.cloned(), eng: p.eng}
}

// sumSites adds up a per-site storage statistic.
func (p *SymPEPS) sumSites(f func(*tensor.Sym) int64) int64 {
	var n int64
	for _, row := range p.sites {
		for _, t := range row {
			n += f(t)
		}
	}
	return n
}

// StateBytes returns the bytes actually stored across all site blocks.
func (p *SymPEPS) StateBytes() int64 { return p.sumSites((*tensor.Sym).StoredBytes) }

// DenseEquivBytes returns the bytes a dense representation of the same
// bond dimensions would occupy; StateBytes/DenseEquivBytes is the
// block-sparse memory saving.
func (p *SymPEPS) DenseEquivBytes() int64 { return p.sumSites((*tensor.Sym).DenseBytes) }

// NumBlocks returns the total stored-block count across all sites.
func (p *SymPEPS) NumBlocks() int {
	return int(p.sumSites(func(t *tensor.Sym) int64 { return int64(t.NumBlocks()) }))
}

// ToDense embeds every site into its dense form, producing the ordinary
// PEPS the rest of the library (expectation values, benchmarks,
// reference checks) operates on. The embedding is exact.
func (p *SymPEPS) ToDense() *PEPS {
	return &PEPS{lattice: gridOf(mapSites(p.sites, (*tensor.Sym).ToDense), p.LogScale), eng: p.eng}
}

// SymComputationalBasis returns the basis product state with the given
// bits in row-major order (nil means all zeros) as a block-sparse PEPS
// under the symmetry group Z_mod (mod 0 selects U(1)). Each site stores
// exactly one 1x1x1x1x1 block: the physical sector of its bit.
func SymComputationalBasis(eng backend.SymEngine, mod, rows, cols int, bits []int) *SymPEPS {
	if bits != nil && len(bits) != rows*cols {
		panic(fmt.Sprintf("peps: %d bits for %d sites", len(bits), rows*cols))
	}
	sites := make([][]*tensor.Sym, rows)
	for r := range sites {
		sites[r] = make([]*tensor.Sym, cols)
		for c := range sites[r] {
			b := 0
			if bits != nil {
				b = bits[r*cols+c] & 1
			}
			legs := []tensor.Leg{
				trivialSymLeg(-1), trivialSymLeg(-1),
				trivialSymLeg(+1), trivialSymLeg(+1),
				PhysSymLeg(+1),
			}
			t := tensor.NewSym(mod, tensor.CanonCharge(b, mod), legs)
			blk := tensor.New(1, 1, 1, 1, 1)
			blk.Set(1, 0, 0, 0, 0, 0)
			t.SetBlock(blk, 0, 0, 0, 0, b)
			sites[r][c] = t
		}
	}
	return NewSymPEPS(eng, sites)
}

// symGateTol is the relative embedding residual above which a gate is
// declared non-conserving. Conserving gates built from exact matrix
// exponentials land at machine epsilon; a genuinely charge-violating
// gate has O(1) weight outside the allowed sectors.
const symGateTol = 1e-12

// SymGate is a Trotter gate converted to block-sparse form.
type SymGate struct {
	Sites []int
	// Gate has legs [i, p] (one-site) or [i, j, p, q] (two-site) with
	// the out indices carrying direction +1 and the in indices -1, and
	// total charge zero — the statement of charge conservation.
	Gate *tensor.Sym
}

// SymOneSiteGate converts a 2x2 gate to block-sparse form; ok is false
// when the gate does not conserve charge.
func SymOneSiteGate(g *tensor.Dense, mod int) (*tensor.Sym, bool) {
	legs := []tensor.Leg{PhysSymLeg(+1), PhysSymLeg(-1)}
	s, resid := tensor.SymFromDense(g, mod, 0, legs)
	return s, resid <= symGateTol*g.Norm()
}

// SymTwoSiteGate converts a two-site gate (4x4 or [2,2,2,2] over
// (site1, site2)) to block-sparse form; ok is false when the gate does
// not conserve charge.
func SymTwoSiteGate(g *tensor.Dense, mod int) (*tensor.Sym, bool) {
	g4 := quantum.Gate4(g)
	legs := []tensor.Leg{PhysSymLeg(+1), PhysSymLeg(+1), PhysSymLeg(-1), PhysSymLeg(-1)}
	s, resid := tensor.SymFromDense(g4, mod, 0, legs)
	return s, resid <= symGateTol*g4.Norm()
}

// SymTrotterGates converts a dense gate list to block-sparse form. The
// second result is false — with no gates converted — when any gate
// fails to conserve charge; callers then fall back to the dense path
// for the whole circuit (projecting individual gates onto the conserved
// sectors would silently discard amplitude).
func SymTrotterGates(gates []quantum.TrotterGate, mod int) ([]SymGate, bool) {
	out := make([]SymGate, 0, len(gates))
	for _, g := range gates {
		var sg *tensor.Sym
		var ok bool
		switch len(g.Sites) {
		case 1:
			sg, ok = SymOneSiteGate(g.Gate, mod)
		case 2:
			sg, ok = SymTwoSiteGate(g.Gate, mod)
		default:
			return nil, false
		}
		if !ok {
			return nil, false
		}
		out = append(out, SymGate{Sites: append([]int{}, g.Sites...), Gate: sg})
	}
	return out, true
}

// symKernel runs the update block by block on a backend.SymEngine. Only
// the explicit contract-then-SVD refactorization exists for block-sparse
// tensors: randomized sketching mixes charge sectors.
type symKernel struct {
	eng  backend.SymEngine
	mod  int
	mode einsumsvd.SigmaMode
}

func (k symKernel) einsum(spec string, ops ...*tensor.Sym) *tensor.Sym {
	return k.eng.SymEinsum(spec, ops...)
}

func (k symKernel) qrSplit(t *tensor.Sym, leftAxes int) (*tensor.Sym, *tensor.Sym) {
	return k.eng.SymQRSplit(t, leftAxes)
}

func (k symKernel) factor(spec string, rank int, ops ...*tensor.Sym) (*tensor.Sym, *tensor.Sym, []float64, float64) {
	return einsumsvd.MustSymFactor(k.eng, k.mode, spec, rank, ops...)
}

func (k symKernel) scope(name string) (kernel[*tensor.Sym], *obs.Span) {
	eng, sp := backend.Scope(k.eng, name)
	if sp == nil {
		return nil, nil
	}
	k.eng = eng.(backend.SymEngine) // Scope keeps the engine's kind
	return k, sp
}

func (symKernel) gate4(g *tensor.Sym) *tensor.Sym { return g }

func (k symKernel) swap() *tensor.Sym {
	swap, ok := SymTwoSiteGate(quantum.SWAP(), k.mod)
	if !ok {
		panic("peps: SWAP gate must conserve charge")
	}
	return swap
}

// updater serves the options block-sparse tensors can: either update
// method, with the explicit strategy in any sigma mode (nil means
// balanced, as on the dense path). Any other strategy panics rather than
// silently running a different factorization.
func (p *SymPEPS) updater(opts UpdateOptions) *updater[*tensor.Sym] {
	st, ok := opts.strategy().(einsumsvd.Explicit)
	if !ok {
		panic(fmt.Sprintf("peps: block-sparse updates support only the explicit strategy, not %s", opts.Strategy.Name()))
	}
	return newUpdater(&p.lattice, symKernel{p.eng, p.Mod(), st.Mode}, "sym-"+updateMethodName(opts.Method), opts)
}

// ApplyOneSite applies a converted one-site gate in place.
func (p *SymPEPS) ApplyOneSite(g *tensor.Sym, site int) {
	applyOneSite(&p.lattice, p.eng.SymEinsum, g, site)
}

// ApplyTwoSite applies a converted two-site gate g4 (legs [i,j,p,q]
// over (site1, site2)) to two lattice sites, routing non-adjacent pairs
// with SWAP chains exactly like the dense path.
func (p *SymPEPS) ApplyTwoSite(g4 *tensor.Sym, site1, site2 int, opts UpdateOptions) {
	p.LogScale += p.updater(opts).twoSite(g4, site1, site2)
}

// ApplyGate dispatches a converted one- or two-site gate.
func (p *SymPEPS) ApplyGate(g SymGate, opts UpdateOptions) {
	p.LogScale += p.updater(opts).gate(g.Sites, g.Gate)
}

// ApplyCircuit applies a sequence of converted gates with the same
// options, strictly sequentially: the per-gate work already runs the
// parallel dense kernels block by block, and a fixed application order
// keeps results bit-identical at any worker count with no wave
// scheduling or delta reduction needed.
func (p *SymPEPS) ApplyCircuit(gates []SymGate, opts UpdateOptions) {
	eng, sp := backend.Scope(p.eng, "peps.circuit")
	sp.SetInt("gates", int64(len(gates)))
	defer sp.End()
	q := *p // shares p's sites; the scale deltas are summed on p
	q.eng = eng.(backend.SymEngine)
	for _, g := range gates {
		p.LogScale += q.updater(opts).gate(g.Sites, g.Gate)
	}
}
