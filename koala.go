// Package gokoala is the public facade of the library: a PEPS-based
// quantum state with the operator-application and measurement interface
// of the paper's Koala library (section V-A), assembled from the
// internal packages. The facade owns sensible defaults (QR-SVD updates,
// priced contraction with caching: implicit randomized SVD where the
// cost model prices the sketch lower, explicit SVD elsewhere, see
// einsumsvd.Priced) so that typical use
// reads like the paper's Python example:
//
//	q := gokoala.ComputationalZeros(2, 3)
//	q.ApplyOperator(quantum.Y(), []int{1})
//	q.ApplyOperator(quantum.CX(), []int{1, 4}, gokoala.WithRank(2))
//	h := quantum.ObservableZZ(3, 4).Add(quantum.ObservableX(1).Scale(0.2))
//	e := q.Expectation(h)
//
// Lower-level control (engines, einsumsvd strategies, contraction
// options) remains available through the internal packages; the facade
// accepts those types directly where it matters.
package gokoala

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// QuantumState is a 2-D lattice quantum state represented as a PEPS.
type QuantumState struct {
	state *peps.PEPS
	cfg   config
}

type config struct {
	engine       backend.Engine
	rank         int
	contractBond int
	seed         int64
	explicitSVD  bool
	useCache     bool
	normalize    bool
}

// Option configures a QuantumState or a single operation.
type Option func(*config)

// WithBackend selects the tensor engine (default: the dense sequential
// engine; use backend.NewDist for the simulated distributed engine).
func WithBackend(e backend.Engine) Option { return func(c *config) { c.engine = e } }

// WithRank caps the bond dimension kept by two-site updates (default 0:
// exact application, bonds grow).
func WithRank(r int) Option { return func(c *config) { c.rank = r } }

// WithContractionBond sets the boundary bond dimension m used by
// expectation values, amplitudes and norms (default: max(4, rank^2)).
func WithContractionBond(m int) Option { return func(c *config) { c.contractBond = m } }

// WithSeed seeds the randomized-SVD sketches (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithExplicitSVD switches contraction from the priced default, which
// runs implicit randomized SVD (IBMPS) where its cost model prices the
// sketch lower, to explicit truncated SVD (BMPS) everywhere.
func WithExplicitSVD() Option { return func(c *config) { c.explicitSVD = true } }

// WithoutCache disables the intermediate caching of expectation values
// (paper section IV-B); on by default.
func WithoutCache() Option { return func(c *config) { c.useCache = false } }

// WithNormalizedUpdates rescales site tensors after every update,
// folding factors into the state's global log-scale. Recommended for
// long imaginary-time evolutions.
func WithNormalizedUpdates() Option { return func(c *config) { c.normalize = true } }

func newConfig(opts []Option) config {
	c := config{seed: 1, useCache: true}
	for _, o := range opts {
		o(&c)
	}
	if c.engine == nil {
		c.engine = backend.NewDense()
	}
	return c
}

func (c config) withOverrides(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c config) strategy() einsumsvd.Strategy {
	if c.explicitSVD {
		return einsumsvd.Explicit{}
	}
	return einsumsvd.Priced{ImplicitRand: einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(c.seed))}}
}

func (c config) m() int {
	if c.contractBond > 0 {
		return c.contractBond
	}
	m := c.rank * c.rank
	if m < 4 {
		m = 4
	}
	return m
}

// ComputationalZeros returns |0...0> on a rows-by-cols lattice.
func ComputationalZeros(rows, cols int, opts ...Option) *QuantumState {
	cfg := newConfig(opts)
	return &QuantumState{state: peps.ComputationalZeros(cfg.engine, rows, cols), cfg: cfg}
}

// ComputationalBasis returns the basis product state with the given bits
// (row-major).
func ComputationalBasis(rows, cols int, bits []int, opts ...Option) *QuantumState {
	cfg := newConfig(opts)
	return &QuantumState{state: peps.ComputationalBasis(cfg.engine, rows, cols, bits), cfg: cfg}
}

// Rows and Cols report the lattice shape.
func (q *QuantumState) Rows() int { return q.state.Rows }
func (q *QuantumState) Cols() int { return q.state.Cols }

// PEPS exposes the underlying tensor-network state for advanced use.
func (q *QuantumState) PEPS() *peps.PEPS { return q.state }

// MaxBond returns the largest bond dimension in the network.
func (q *QuantumState) MaxBond() int { return q.state.MaxBond() }

// Clone returns an independent copy sharing the configuration.
func (q *QuantumState) Clone() *QuantumState {
	return &QuantumState{state: q.state.Clone(), cfg: q.cfg}
}

// ApplyOperator applies a one-site (2x2) or two-site (4x4) operator to
// the given lattice sites, mirroring Koala's qstate.apply_operator.
// Per-call options (e.g. WithRank) override the state's defaults.
func (q *QuantumState) ApplyOperator(op *tensor.Dense, sites []int, opts ...Option) {
	c := q.cfg.withOverrides(opts)
	switch len(sites) {
	case 1:
		q.state.ApplyOneSite(op, sites[0])
	case 2:
		q.state.ApplyTwoSite(op, sites[0], sites[1], peps.UpdateOptions{
			Rank:      c.rank,
			Method:    peps.UpdateQR,
			Normalize: c.normalize,
		})
	default:
		panic(fmt.Sprintf("gokoala: operators act on 1 or 2 sites, got %d", len(sites)))
	}
}

// ApplyCircuit applies a gate sequence with the state's update defaults.
func (q *QuantumState) ApplyCircuit(gates []quantum.TrotterGate, opts ...Option) {
	c := q.cfg.withOverrides(opts)
	q.state.ApplyCircuit(gates, peps.UpdateOptions{
		Rank:      c.rank,
		Method:    peps.UpdateQR,
		Normalize: c.normalize,
	})
}

// Expectation returns the Rayleigh quotient <q|H|q>/<q|q> for an
// observable given as a sum of local terms.
func (q *QuantumState) Expectation(obs *quantum.Observable, opts ...Option) complex128 {
	c := q.cfg.withOverrides(opts)
	return q.state.Expectation(obs, peps.ExpectationOptions{
		M:        c.m(),
		Strategy: c.strategy(),
		UseCache: c.useCache,
	})
}

// EnergyPerSite returns Re(Expectation)/sites.
func (q *QuantumState) EnergyPerSite(obs *quantum.Observable, opts ...Option) float64 {
	return real(q.Expectation(obs, opts...)) / float64(q.Rows()*q.Cols())
}

// Amplitude returns <bits|q> using boundary contraction.
func (q *QuantumState) Amplitude(bits []int, opts ...Option) complex128 {
	c := q.cfg.withOverrides(opts)
	return q.state.Amplitude(bits, peps.BMPS{M: c.m(), Strategy: c.strategy()})
}

// Probability returns |<bits|q>|^2 / <q|q>.
func (q *QuantumState) Probability(bits []int, opts ...Option) float64 {
	a := q.Amplitude(bits, opts...)
	n := q.Norm(opts...)
	if n == 0 {
		return 0
	}
	p := cmplx.Abs(a) / n
	return p * p
}

// Norm returns sqrt(<q|q>) via two-layer boundary contraction.
func (q *QuantumState) Norm(opts ...Option) float64 {
	c := q.cfg.withOverrides(opts)
	return q.state.Norm(peps.TwoLayerBMPS{M: c.m(), Strategy: c.strategy()})
}

// Inner returns <q|other> via two-layer boundary contraction.
func (q *QuantumState) Inner(other *QuantumState, opts ...Option) complex128 {
	c := q.cfg.withOverrides(opts)
	return q.state.Inner(other.state, peps.TwoLayerBMPS{M: c.m(), Strategy: c.strategy()})
}

// Fidelity returns |<q|other>| / (|q| |other|).
func (q *QuantumState) Fidelity(other *QuantumState, opts ...Option) float64 {
	c := q.cfg.withOverrides(opts)
	v := q.state.NormalizedInner(other.state, peps.TwoLayerBMPS{M: c.m(), Strategy: c.strategy()})
	f := cmplx.Abs(v)
	return math.Min(f, 1)
}
