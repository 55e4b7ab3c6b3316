// Package ite implements imaginary time evolution for PEPS (paper
// section II-D1 and the Figure 13 application study). Each step applies
// one first-order Trotterized sweep of e^{-tau H} with truncated
// simple/QR updates, and the Rayleigh quotient is measured with the
// boundary contraction of choice.
package ite

import (
	"math/rand"

	"gokoala/internal/checkpoint"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/telemetry"
)

// Options configures a PEPS imaginary time evolution run.
type Options struct {
	// Tau is the imaginary time step.
	Tau float64
	// Steps is the number of Trotter sweeps.
	Steps int
	// EvolutionRank is the PEPS bond dimension r kept during updates.
	EvolutionRank int
	// ContractionRank is the boundary bond dimension m used when
	// measuring energies (paper studies m = r and m = r^2).
	ContractionRank int
	// Strategy is the einsumsvd strategy for energy contraction; nil
	// selects einsumsvd.Priced, which runs the implicit randomized SVD
	// (IBMPS) of the paper's Figure 13 runs where its cost model prices
	// the sketch below forming the operator, and the explicit SVD (BMPS)
	// elsewhere — at Figure 13's r=2, m=4 on every split. Stateful
	// strategies are reseeded from (Seed, step) before every
	// measurement, making each measurement's random stream a pure
	// function of the step — the property checkpoint resume needs.
	Strategy einsumsvd.Strategy
	// MeasureEvery measures the energy every k steps (default 1). The
	// final step is always measured.
	MeasureEvery int
	// Seed seeds the randomized-SVD sketches.
	Seed int64
	// UseCache enables the intermediate-caching expectation evaluation.
	UseCache bool
	// SecondOrder selects the symmetric (Strang) Trotter splitting,
	// reducing the per-sweep error from O(tau^2) to O(tau^3) at twice the
	// gate count.
	SecondOrder bool
	// WeightedUpdate uses the lambda-weighted (Jiang-Weng-Xiang) simple
	// update instead of the plain per-bond truncation; substantially more
	// accurate at equal rank. Incompatible with checkpointing (the bond
	// weights are not serialized).
	WeightedUpdate bool

	// CheckpointPath, when non-empty, writes a crash-safe checkpoint of
	// the evolved state and trace after every CheckpointEvery-th step
	// (and after the final step). A failed write is counted in
	// health.checkpoint_failures and the evolution continues.
	CheckpointPath string
	// CheckpointEvery is the step interval between checkpoints
	// (default 1).
	CheckpointEvery int
	// From resumes the evolution from a loaded checkpoint: the state,
	// completed-step counter, energy trace, and base seed all come from
	// the checkpoint (the checkpoint's seed overrides Seed, so a resumed
	// run reproduces the uninterrupted one bit for bit).
	From *checkpoint.ITECheckpoint
	// AfterStep, when non-nil, runs after each step's bookkeeping
	// (measurement and checkpoint write) with the 1-based step index.
	// Crash-injection tests use it to kill the process mid-run.
	AfterStep func(step int)
	// Stop, when non-nil, is polled after each step; when it returns
	// true the evolution measures the current state, writes a final
	// checkpoint (when CheckpointPath is set), and returns early with
	// the partial trace. cliutil's SIGINT handler drives it.
	Stop func() bool
}

// Result holds the evolution trace.
type Result struct {
	// Energies[k] is the energy per site after step Steps recorded at the
	// k-th measurement.
	Energies []float64
	// MeasuredAt[k] is the 1-based step index of the k-th measurement.
	MeasuredAt []int
	// Final is the evolved state as the last energy was measured on it:
	// for weighted runs the copy with the bond weights absorbed, for
	// symmetric runs the dense embedding.
	Final *peps.PEPS
	// FinalSym is the evolved block-sparse state of a symmetric run
	// that did not fall back; nil otherwise.
	FinalSym *peps.SymPEPS
	// FellBack reports that a symmetric run hit a non-conserving gate
	// and completed on the dense path (see EvolveSym).
	FellBack bool
}

// stepSeed derives the measurement-stream seed for one step from the base
// seed (splitmix64-style mixing, so adjacent steps get unrelated streams).
func stepSeed(seed int64, step int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(step+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// driver is what the evolution loop needs from the state it evolves;
// the state's kind (plain, lambda-weighted, block-sparse) shows nowhere
// else in the loop.
type driver struct {
	// sweep applies one Trotter sweep in place.
	sweep func()
	// dense returns the dense state energies are measured on.
	dense func() *peps.PEPS
	// describe adds the state's fields to a step's telemetry event.
	describe func(fields map[string]float64)
	// store puts the evolved state into its checkpoint field.
	store func(cp *checkpoint.ITECheckpoint)
}

// trotterGates returns one sweep of e^{-tau H} in the selected splitting.
func trotterGates(obs *quantum.Observable, opts Options) []quantum.TrotterGate {
	if opts.SecondOrder {
		return obs.TrotterGatesSecondOrder(complex(-opts.Tau, 0))
	}
	return obs.TrotterGates(complex(-opts.Tau, 0))
}

// Evolve runs ITE on the given initial state and returns the energy
// trace. The state is evolved in place (resume replaces it with the
// checkpointed state). For the transverse-field Ising model the |+...+>
// product state (see PlusState) overlaps the ground state. For J1-J2 it
// does not: |+...+> lies in the ferromagnetic S = n/2 sector, a uniform
// Trotter sweep maps it to another symmetric product state, and its
// overlap with the lower-S ground state is exactly zero, so a J1-J2 run
// from it leaves the plateau only through rounding noise.
func Evolve(state *peps.PEPS, obs *quantum.Observable, opts Options) Result {
	if (opts.CheckpointPath != "" || opts.From != nil) && opts.WeightedUpdate {
		panic("ite: checkpointing does not support WeightedUpdate (bond weights are not serialized)")
	}
	if opts.From != nil {
		state = opts.From.State
	}
	gates := trotterGates(obs, opts)
	d := driver{
		dense:    func() *peps.PEPS { return state },
		describe: func(f map[string]float64) { f["max_bond"] = float64(state.MaxBond()) },
		store:    func(cp *checkpoint.ITECheckpoint) { cp.State = state },
	}
	if opts.WeightedUpdate {
		su := peps.NewSimpleUpdate(state)
		d.sweep = func() { su.ApplyCircuit(gates, opts.EvolutionRank, nil) }
		d.dense = su.Absorb
	} else {
		upd := peps.UpdateOptions{Rank: opts.EvolutionRank, Method: peps.UpdateQR, Normalize: true}
		d.sweep = func() { state.ApplyCircuit(gates, upd) }
	}
	return evolve(obs, opts, d)
}

// evolve is the ITE loop: sweep, measure, publish, checkpoint.
func evolve(h *quantum.Observable, opts Options, d driver) Result {
	if opts.MeasureEvery <= 0 {
		opts.MeasureEvery = 1
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	var res Result
	start := 1
	if cp := opts.From; cp != nil {
		opts.Seed = cp.Seed
		start = cp.Step + 1
		res.Energies = append(res.Energies, cp.Energies...)
		res.MeasuredAt = append(res.MeasuredAt, cp.MeasuredAt...)
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = einsumsvd.Priced{ImplicitRand: einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(opts.Seed + 1))}}
	}
	for step := start; step <= opts.Steps; step++ {
		d.sweep()
		// Poll after the sweep so a signal mid-sweep still yields a
		// consistent measured + checkpointed state for this step.
		stopping := opts.Stop != nil && opts.Stop()
		measuredNow := false
		if step%opts.MeasureEvery == 0 || step == opts.Steps || stopping {
			// Reseed the measurement stream from (Seed, step): the stream
			// no longer depends on how many measurements ran before, so a
			// resumed run reproduces it exactly.
			st := einsumsvd.Reseed(strategy, stepSeed(opts.Seed, step))
			e := d.dense().EnergyPerSite(h, peps.ExpectationOptions{
				M:        opts.ContractionRank,
				Strategy: st,
				UseCache: opts.UseCache,
			})
			health.CheckFloat("ite.energy", e)
			res.Energies = append(res.Energies, e)
			res.MeasuredAt = append(res.MeasuredAt, step)
			measuredNow = true
		}
		if obs.Enabled() {
			fields := map[string]float64{
				"step":        float64(step),
				"steps_total": float64(opts.Steps),
			}
			d.describe(fields)
			if measuredNow {
				e := res.Energies[len(res.Energies)-1]
				fields["energy_per_site"] = e
				obs.Observe("ite.energy_per_site", e)
			}
			obs.Observe("ite.step", float64(step))
			telemetry.Publish("ite.step", step, fields)
		}
		if opts.CheckpointPath != "" && (step%opts.CheckpointEvery == 0 || step == opts.Steps || stopping) {
			cp := &checkpoint.ITECheckpoint{
				Step:       step,
				Seed:       opts.Seed,
				Energies:   res.Energies,
				MeasuredAt: res.MeasuredAt,
			}
			d.store(cp)
			// Failed writes are counted (health.checkpoint_failures) by
			// WriteAtomic and the previous checkpoint stays valid; losing
			// one checkpoint must not kill an hours-long evolution.
			_ = checkpoint.SaveITE(opts.CheckpointPath, cp)
		}
		if opts.AfterStep != nil {
			opts.AfterStep(step)
		}
		if stopping {
			telemetry.Publish("ite.stop", step, nil)
			break
		}
	}
	res.Final = d.dense()
	return res
}

// PlusState returns the |+>^(rows*cols) product state as a PEPS, the
// standard ITE starting point.
func PlusState(state *peps.PEPS) *peps.PEPS {
	h := quantum.H()
	for s := 0; s < state.Rows*state.Cols; s++ {
		state.ApplyOneSite(h, s)
	}
	return state
}
