// Command koala-rqc generates a random quantum circuit, evolves it on a
// PEPS (exactly or with truncation), and reports output amplitudes and
// approximate-contraction errors (the paper's Figure 10 study).
//
// Usage:
//
//	koala-rqc [-n 4] [-layers 4] [-r 0] [-ms 1,2,4,8,16] [-ranks n] [-seed 7] [-workers n]
//	          [-kernel auto|asm|go] [-f32-sketch] [-trace file] [-metrics file] [-listen addr]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"gokoala/internal/backend"
	"gokoala/internal/cliutil"
	"gokoala/internal/dist"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/peps"
	"gokoala/internal/rqc"
)

func main() {
	n := flag.Int("n", 4, "lattice side length")
	layers := flag.Int("layers", 4, "circuit depth")
	evolveRank := flag.Int("r", 0, "evolution bond cap (0 = exact)")
	msFlag := flag.String("ms", "1,2,4,8,16", "comma-separated contraction bond dimensions")
	seed := cliutil.SeedFlag(7)
	oc := cliutil.ObsFlags()
	workers := cliutil.WorkersFlag()
	listen := cliutil.ListenFlag()
	kernel := cliutil.KernelFlag()
	f32Sketch := cliutil.F32SketchFlag()
	ranks := cliutil.RanksFlag()
	flag.Parse()
	cliutil.ApplyWorkers(*workers)
	if err := cliutil.ApplyKernel(*kernel); err != nil {
		log.Fatal(err)
	}
	if _, err := oc.Setup(); err != nil {
		log.Fatal(err)
	}
	tel, err := cliutil.StartTelemetry(*listen, "rqc", map[string]string{
		"n": fmt.Sprint(*n), "layers": fmt.Sprint(*layers),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tel.Close()
	cliutil.HandleSignals(true, func() {
		_ = oc.Finish(nil)
		_ = tel.Close()
	})

	var ms []int
	for _, s := range strings.Split(*msFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad -ms entry %q: %v", s, err)
		}
		ms = append(ms, v)
	}

	rng := rand.New(rand.NewSource(*seed))
	circ := rqc.Generate(rng, *n, *n, *layers)
	fmt.Printf("RQC: %dx%d lattice, %d layers, %d gates\n", *n, *n, *layers, len(circ.Gates))

	// Engine selection: -ranks > 0 runs the heavy kernels through the
	// SPMD dist engine. Its modeled grid summary goes to stderr, so
	// stdout stays byte-comparable with a dense run's.
	eng := backend.Instrument(backend.NewDense())
	var grid *dist.Grid
	if *ranks > 0 {
		grid = dist.NewGrid(dist.Stampede2(*ranks))
		deng := &backend.Dist{Grid: grid, UseGram: true, LocalSVD: true}
		eng = backend.Instrument(deng)
		fmt.Printf("engine: %s, ranks: %d\n", deng.Name(), *ranks)
	}
	state := peps.ComputationalZeros(eng, *n, *n)
	applied := rqc.Apply(state, circ, peps.UpdateOptions{Rank: *evolveRank, Method: peps.UpdateQR},
		cliutil.StopRequested)
	if applied < len(circ.Gates) {
		fmt.Printf("interrupted: stopped gracefully after %d of %d gates\n", applied, len(circ.Gates))
		if err := oc.Finish(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("evolution bond dimension: %d\n", state.MaxBond())

	bits := rqc.RandomBits(rng, (*n)*(*n))
	proj := state.Project(bits)
	exact := proj.ContractScalar(peps.Exact{})
	fmt.Printf("bit string %v\nexact amplitude: %.6e%+.6ei\n\n", bits, real(exact), imag(exact))

	fmt.Println("m      rel.err(BMPS)  rel.err(IBMPS)")
	for _, m := range ms {
		if cliutil.StopRequested() {
			break
		}
		eb := peps.RelativeError(proj.ContractScalar(peps.BMPS{M: m, Strategy: einsumsvd.Explicit{}}), exact)
		ib := peps.RelativeError(proj.ContractScalar(peps.BMPS{
			M: m, Strategy: einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(*seed + int64(m))), Sketch32: *f32Sketch},
		}), exact)
		fmt.Printf("%-6d %-14.3e %-14.3e\n", m, eb, ib)
	}
	if grid != nil {
		writeGridSummary(os.Stderr, grid)
	}
	if err := oc.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// writeGridSummary prints the grid's modeled accounting to stderr.
func writeGridSummary(w io.Writer, g *dist.Grid) {
	s := g.Snapshot()
	fmt.Fprintf(w, "\n-- dist grid --\n")
	fmt.Fprintf(w, "modeled: %.6fs comm + %.6fs comp (%d msgs, %d bytes, %d redistributions)\n",
		s.CommSeconds(), s.CompSeconds, s.Msgs, s.Bytes, s.Redistributions)
}
