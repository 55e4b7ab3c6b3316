// Command koala-ite runs PEPS imaginary time evolution for the built-in
// lattice Hamiltonians (paper section II-D1) and prints the energy trace.
//
// Usage:
//
//	koala-ite -model j1j2 -rows 4 -cols 4 -r 2 -m 4 -tau 0.05 -steps 60
//
// Long runs can write crash-safe checkpoints (-checkpoint run.ckpt
// -checkpoint-every 10) and continue after a crash with -resume; the
// resumed trace is bit-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"gokoala/internal/backend"
	"gokoala/internal/checkpoint"
	"gokoala/internal/cliutil"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/ite"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
)

func main() {
	model := flag.String("model", "j1j2", "hamiltonian: j1j2 | tfi")
	rows := flag.Int("rows", 4, "lattice rows")
	cols := flag.Int("cols", 4, "lattice columns")
	r := flag.Int("r", 2, "evolution bond dimension")
	m := flag.Int("m", 0, "contraction bond dimension (default r^2)")
	tau := flag.Float64("tau", 0.05, "imaginary time step")
	steps := flag.Int("steps", 60, "number of Trotter sweeps")
	every := flag.Int("every", 10, "measure energy every k steps")
	seed := cliutil.SeedFlag(1)
	sym := cliutil.SymFlag()
	reference := flag.Bool("reference", true, "also compute the exact reference when the lattice is small enough")
	healthFlag := cliutil.HealthFlag()
	ck := cliutil.CheckpointFlags("steps")
	oc := cliutil.ObsFlags()
	workers := cliutil.WorkersFlag()
	listen := cliutil.ListenFlag()
	kernel := cliutil.KernelFlag()
	f32Sketch := cliutil.F32SketchFlag()
	flag.Parse()
	cliutil.ApplyWorkers(*workers)
	if err := cliutil.ApplyKernel(*kernel); err != nil {
		log.Fatal(err)
	}
	if err := cliutil.ApplyHealth(*healthFlag); err != nil {
		log.Fatal(err)
	}
	if err := ck.Validate(); err != nil {
		log.Fatal(err)
	}
	if _, err := oc.Setup(); err != nil {
		log.Fatal(err)
	}
	tel, err := cliutil.StartTelemetry(*listen, "ite", map[string]string{
		"model": *model,
		"rows":  fmt.Sprint(*rows), "cols": fmt.Sprint(*cols),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tel.Close()
	cliutil.HandleSignals(true, func() {
		_ = oc.Finish(nil)
		_ = tel.Close()
	})

	symOn, symMod, err := cliutil.ParseSym(*sym)
	if err != nil {
		log.Fatal(err)
	}
	var obs *quantum.Observable
	switch *model {
	case "j1j2":
		if symOn {
			// The U(1)-conserving form: combined (XX+YY)+ZZ pair terms and
			// a z-only field. Z2 also conserves it (parity is S_z mod 2).
			obs = quantum.J1J2HeisenbergU1(*rows, *cols, quantum.PaperJ1J2ParamsU1())
		} else {
			obs = quantum.J1J2Heisenberg(*rows, *cols, quantum.PaperJ1J2Params())
		}
	case "tfi":
		if symOn {
			if symMod != 2 {
				log.Fatalf("-sym %s is not conserved by the TFI model; its X X terms conserve only the Z2 parity (-sym z2)", *sym)
			}
			// The Hadamard-dual frame: same spectrum, every gate conserves
			// bit parity, and |0...0> here is |+...+> in the original frame.
			obs = quantum.TransverseFieldIsingDual(*rows, *cols, -1, -3.5)
		} else {
			obs = quantum.TransverseFieldIsing(*rows, *cols, -1, -3.5)
		}
	default:
		log.Fatalf("unknown model %q", *model)
	}
	mm := *m
	if mm <= 0 {
		mm = (*r) * (*r)
		if mm < 2 {
			mm = 2
		}
	}
	// Priced runs the explicit SVD (BMPS) where forming the operator is
	// cheaper than sketching it, the implicit randomized SVD (IBMPS)
	// elsewhere; -f32-sketch applies to the latter.
	strategy := einsumsvd.Priced{ImplicitRand: einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(*seed)), Sketch32: *f32Sketch}}

	n := (*rows) * (*cols)
	if *reference && n <= 16 {
		e, _ := statevector.GroundState(obs, n, rand.New(rand.NewSource(*seed)))
		fmt.Printf("exact ground state energy per site: %.6f\n", e/float64(n))
	}

	eng := backend.Instrument(backend.NewDense())
	var from *checkpoint.ITECheckpoint
	if *ck.Resume {
		cp, err := checkpoint.LoadITE(*ck.Path, eng)
		switch {
		case err == nil:
			from = cp
			fmt.Printf("resuming from %s at step %d\n", *ck.Path, cp.Step)
		case checkpoint.IsNotExist(err):
			fmt.Printf("no checkpoint at %s, starting fresh\n", *ck.Path)
		default:
			log.Fatal(err)
		}
	}
	var afterStep func(int)
	if *ck.DieAfter > 0 {
		die := *ck.DieAfter
		afterStep = func(step int) {
			if step >= die {
				fmt.Printf("injected crash after step %d\n", step)
				os.Exit(3)
			}
		}
	}

	if from != nil && from.SymState != nil && !symOn {
		log.Fatalf("checkpoint %s holds a block-sparse state; rerun with -sym", *ck.Path)
	}
	opts := ite.Options{
		Tau:             *tau,
		Steps:           *steps,
		EvolutionRank:   *r,
		ContractionRank: mm,
		Strategy:        strategy,
		MeasureEvery:    *every,
		Seed:            *seed,
		UseCache:        true,
		CheckpointPath:  *ck.Path,
		CheckpointEvery: *ck.Every,
		From:            from,
		AfterStep:       afterStep,
		Stop:            cliutil.StopRequested,
	}
	var res ite.Result
	if symOn {
		se, ok := backend.SymOf(eng)
		if !ok {
			log.Fatalf("engine %s has no block-sparse kernels", eng.Name())
		}
		var bits []int
		if *model == "j1j2" {
			// The Neel pattern pins the U(1) run to the S_z = 0 sector; the
			// TFI dual frame starts from |0...0> (= |+...+> undualized).
			bits = quantum.NeelBits(*rows, *cols)
		}
		state := peps.SymComputationalBasis(se, symMod, *rows, *cols, bits)
		fmt.Printf("symmetric backend: -sym %s, initial blocks %d\n", *sym, state.NumBlocks())
		res = ite.EvolveSym(state, obs, opts)
		if res.FellBack {
			fmt.Println("symmetric backend: circuit does not conserve charge; fell back to dense evolution")
		}
	} else {
		state := ite.PlusState(peps.ComputationalZeros(eng, *rows, *cols))
		res = ite.Evolve(state, obs, opts)
	}
	if cliutil.StopRequested() {
		fmt.Printf("interrupted: stopped gracefully after %d measured point(s)\n", len(res.Energies))
	}
	fmt.Printf("ITE on %dx%d %s, r=%d m=%d tau=%g\n", *rows, *cols, *model, *r, mm, *tau)
	for i, e := range res.Energies {
		// Full float64 precision so resumed runs can be diffed bit for bit
		// against uninterrupted ones (make bench-resume).
		fmt.Printf("step %4d  energy/site %.17g\n", res.MeasuredAt[i], e)
	}
	cliutil.WriteHealthCounters(os.Stdout)
	if err := oc.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
