// Package vqe implements the variational quantum eigensolver simulation
// of paper section II-D2 and the Figure 14 accuracy study. The ansatz is
// the paper's layered circuit: a parameterized Ry rotation on every qubit
// followed by CNOTs on every nearest-neighbor pair, repeated per layer.
// The classical optimizer is derivative-free Nelder-Mead (documented
// SLSQP substitution, DESIGN.md section 3).
package vqe

import (
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/checkpoint"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/optimize"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/telemetry"
)

// Ansatz describes the parameterized circuit.
type Ansatz struct {
	Rows, Cols int
	Layers     int
}

// NumParams returns the parameter count: one Ry angle per qubit per layer.
func (a Ansatz) NumParams() int { return a.Rows * a.Cols * a.Layers }

// Gates expands the ansatz at the given parameters into a gate list:
// for each layer, Ry(theta_i) on every site, then CNOTs on every
// horizontally and vertically adjacent pair.
func (a Ansatz) Gates(theta []float64) []quantum.TrotterGate {
	if len(theta) != a.NumParams() {
		panic("vqe: wrong parameter count")
	}
	var gates []quantum.TrotterGate
	site := func(r, c int) int { return r*a.Cols + c }
	k := 0
	for layer := 0; layer < a.Layers; layer++ {
		for s := 0; s < a.Rows*a.Cols; s++ {
			gates = append(gates, quantum.TrotterGate{Sites: []int{s}, Gate: quantum.Ry(theta[k])})
			k++
		}
		for r := 0; r < a.Rows; r++ {
			for c := 0; c+1 < a.Cols; c++ {
				gates = append(gates, quantum.TrotterGate{Sites: []int{site(r, c), site(r, c+1)}, Gate: quantum.CX()})
			}
		}
		for r := 0; r+1 < a.Rows; r++ {
			for c := 0; c < a.Cols; c++ {
				gates = append(gates, quantum.TrotterGate{Sites: []int{site(r, c), site(r+1, c)}, Gate: quantum.CX()})
			}
		}
	}
	return gates
}

// Options configures a VQE run.
type Options struct {
	// Rank is the PEPS bond dimension r; 0 runs the exact state-vector
	// simulation instead (the paper's "state vector" reference curve).
	Rank int
	// ContractionRank is the boundary bond dimension for energy
	// evaluation (defaults to Rank*Rank).
	ContractionRank int
	// MaxIter bounds optimizer iterations per restart round.
	MaxIter int
	// Restarts is the number of Nelder-Mead rounds; each round rebuilds
	// the simplex around the best point found so far, which is what lets
	// the derivative-free optimizer traverse the 2-layer 18-parameter
	// landscape (default 6).
	Restarts int
	// Seed seeds the randomized SVD sketches and start parameters.
	Seed int64
	// Strategy overrides the einsumsvd strategy for energy contraction;
	// nil selects einsumsvd.Priced: implicit randomized SVD where its
	// cost model prices the sketch lower, explicit SVD elsewhere.
	Strategy einsumsvd.Strategy
	// Engine is the tensor backend (defaults to the dense engine).
	Engine backend.Engine
	// UseCache enables cached expectation evaluation.
	UseCache bool

	// CheckpointPath, when non-empty, writes a crash-safe checkpoint after
	// every CheckpointEvery-th completed optimizer round (and after the
	// last). Failed writes are counted in health.checkpoint_failures and
	// the optimization continues.
	CheckpointPath string
	// CheckpointEvery is the round interval between checkpoints
	// (default 1).
	CheckpointEvery int
	// From resumes from a loaded checkpoint: the best point, trace, and
	// base seed come from the checkpoint (its seed overrides Seed), and
	// optimization restarts at the next round. Because each objective
	// evaluation is a pure function of (Seed, theta) and Nelder-Mead is
	// deterministic, the resumed run is bit-identical to an uninterrupted
	// one.
	From *checkpoint.VQECheckpoint
	// AfterRound, when non-nil, runs after each round's bookkeeping with
	// the number of completed rounds. Crash-injection tests use it to kill
	// the process mid-run.
	AfterRound func(round int)
	// Stop, when non-nil, is polled after each optimizer round; when it
	// returns true the optimization writes a final checkpoint (when
	// CheckpointPath is set) and returns early with the best point so
	// far. cliutil's SIGINT handler drives it.
	Stop func() bool
}

// Result reports the optimization outcome.
type Result struct {
	// EnergyPerSite is the best objective value found.
	EnergyPerSite float64
	// Theta is the best parameter vector.
	Theta []float64
	// History is the best energy per site after each optimizer iteration
	// (paper Figure 14's x-axis).
	History []float64
	// Evals is the number of objective evaluations.
	Evals int
}

// EnergyPEPS evaluates the ansatz energy per site with a PEPS simulation
// at bond dimension rank.
func EnergyPEPS(a Ansatz, obs *quantum.Observable, theta []float64, opts Options) float64 {
	eng := opts.Engine
	if eng == nil {
		eng = backend.NewDense()
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = einsumsvd.Priced{ImplicitRand: einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(opts.Seed + 17))}}
	}
	m := opts.ContractionRank
	if m <= 0 {
		m = opts.Rank * opts.Rank
		if m < 4 {
			m = 4
		}
	}
	state := peps.ComputationalZeros(eng, a.Rows, a.Cols)
	state.ApplyCircuit(a.Gates(theta), peps.UpdateOptions{
		Rank:      opts.Rank,
		Method:    peps.UpdateQR,
		Normalize: true,
	})
	return state.EnergyPerSite(obs, peps.ExpectationOptions{
		M:        m,
		Strategy: strategy,
		UseCache: opts.UseCache,
	})
}

// EnergyStateVector evaluates the ansatz energy per site exactly.
func EnergyStateVector(a Ansatz, obs *quantum.Observable, theta []float64) float64 {
	sv := statevector.Zeros(a.Rows * a.Cols)
	for _, g := range a.Gates(theta) {
		sv.ApplyGate(g)
	}
	return real(sv.Expectation(obs)) / float64(a.Rows*a.Cols)
}

// Run minimizes the ansatz energy with restarted Nelder-Mead. Rank 0
// uses the state-vector objective; otherwise PEPS at the given bond
// dimension.
func Run(a Ansatz, h *quantum.Observable, opts Options) Result {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 150
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 6
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	start := 0
	var out Result
	if cp := opts.From; cp != nil {
		opts.Seed = cp.Seed
		start = cp.Round
		out = Result{
			EnergyPerSite: cp.Energy,
			Theta:         append([]float64(nil), cp.Theta...),
			History:       append([]float64(nil), cp.History...),
			Evals:         cp.Evals,
		}
	}
	objective := func(theta []float64) float64 {
		var e float64
		if opts.Rank <= 0 {
			e = EnergyStateVector(a, h, theta)
		} else {
			e = EnergyPEPS(a, h, theta, opts)
			health.CheckFloat("vqe.energy", e)
		}
		obs.Observe("vqe.eval_energy_per_site", e)
		return e
	}
	if opts.From == nil {
		rng := rand.New(rand.NewSource(opts.Seed))
		x := make([]float64, a.NumParams())
		for i := range x {
			x[i] = 0.1 * (2*rng.Float64() - 1)
		}
		out = Result{EnergyPerSite: objective(x), Theta: x}
		out.Evals++
	}
	for round := start; round < opts.Restarts; round++ {
		res := optimize.NelderMead(objective, out.Theta, optimize.Options{
			MaxIter:     opts.MaxIter,
			InitialStep: 0.5,
		})
		out.Evals += res.Evals
		// Keep the best-so-far trace monotone across rounds.
		for _, e := range res.History {
			if len(out.History) > 0 && e > out.History[len(out.History)-1] {
				e = out.History[len(out.History)-1]
			}
			out.History = append(out.History, e)
		}
		if res.F <= out.EnergyPerSite {
			out.EnergyPerSite = res.F
			out.Theta = res.X
		}
		done := round + 1
		if opts.CheckpointPath != "" && (done%opts.CheckpointEvery == 0 || done == opts.Restarts) {
			// Failures are counted by WriteAtomic; the previous checkpoint
			// stays valid and the optimization keeps going.
			_ = checkpoint.SaveVQE(opts.CheckpointPath, &checkpoint.VQECheckpoint{
				Round:   done,
				Evals:   out.Evals,
				Energy:  out.EnergyPerSite,
				Theta:   out.Theta,
				History: out.History,
				Seed:    opts.Seed,
			})
		}
		if obs.Enabled() {
			obs.Observe("vqe.energy_per_site", out.EnergyPerSite)
			obs.Observe("vqe.round", float64(done))
			telemetry.Publish("vqe.round", done, map[string]float64{
				"round":           float64(done),
				"rounds_total":    float64(opts.Restarts),
				"energy_per_site": out.EnergyPerSite,
				"evals":           float64(out.Evals),
			})
		}
		if opts.AfterRound != nil {
			opts.AfterRound(done)
		}
		if opts.Stop != nil && opts.Stop() {
			if opts.CheckpointPath != "" && done%opts.CheckpointEvery != 0 && done != opts.Restarts {
				_ = checkpoint.SaveVQE(opts.CheckpointPath, &checkpoint.VQECheckpoint{
					Round:   done,
					Evals:   out.Evals,
					Energy:  out.EnergyPerSite,
					Theta:   out.Theta,
					History: out.History,
					Seed:    opts.Seed,
				})
			}
			telemetry.Publish("vqe.stop", done, nil)
			break
		}
	}
	return out
}
