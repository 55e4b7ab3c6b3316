package ite

import (
	"gokoala/internal/checkpoint"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
)

// EvolveSym runs imaginary time evolution on a block-sparse symmetric
// state. The whole gate list is charge-checked up front: if every
// Trotter gate conserves the state's charge, the evolution stays block-
// sparse end to end (updates contract and factor sector by sector);
// otherwise the state is embedded to dense once and the run continues
// through the ordinary Evolve, reported via Result.FellBack — per-gate
// projection would silently discard amplitude, so fallback is all or
// nothing. Energies are measured by embedding the current state to
// dense and reusing the existing expectation machinery, with the same
// (Seed, step) reseeding discipline, so measured values are directly
// comparable with a dense run of the same schedule. The evolution is
// strictly sequential over gates and therefore bit-identical at any
// worker count.
func EvolveSym(state *peps.SymPEPS, h *quantum.Observable, opts Options) Result {
	if opts.WeightedUpdate {
		panic("ite: the weighted simple update does not support the block-sparse backend")
	}
	denseRun := func(start *peps.PEPS) Result {
		res := Evolve(start, h, opts)
		res.FellBack = true
		return res
	}
	if cp := opts.From; cp != nil {
		if cp.SymState == nil {
			// The interrupted run had fallen back to dense (or predates the
			// symmetric format): resume it on the dense path.
			return denseRun(nil)
		}
		state = cp.SymState
	}
	gates, ok := peps.SymTrotterGates(trotterGates(h, opts), state.Mod())
	if !ok {
		// Non-conserving circuit: embed once and run the dense evolution
		// with unchanged options (including checkpointing, which then
		// writes ordinary dense records).
		health.CountSymFallback()
		return denseRun(state.ToDense())
	}
	upd := peps.UpdateOptions{Rank: opts.EvolutionRank, Normalize: true}
	res := evolve(h, opts, driver{
		sweep: func() { state.ApplyCircuit(gates, upd) },
		dense: state.ToDense,
		describe: func(f map[string]float64) {
			stored, denseEquiv := float64(state.StateBytes()), float64(state.DenseEquivBytes())
			f["max_bond"] = float64(state.MaxBond())
			f["state_bytes"] = stored
			f["dense_equiv_bytes"] = denseEquiv
			f["blocks"] = float64(state.NumBlocks())
			obs.Observe("peps.sym.state_bytes", stored)
			obs.Observe("peps.sym.dense_equiv_bytes", denseEquiv)
		},
		store: func(cp *checkpoint.ITECheckpoint) { cp.SymState = state },
	})
	res.FinalSym = state
	return res
}
