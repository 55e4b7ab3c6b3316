package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/peps"
)

// Fig8Config controls the contraction benchmarks.
type Fig8Config struct {
	N        int
	Bonds    []int // one-layer contraction bond dimensions r (and m = r)
	ExactMax int   // largest bond the exact algorithm attempts
	Ranks    int
	Seed     int64
}

// DefaultFig8aConfig mirrors paper Figure 8a (8x8, one node) at reduced
// scale.
func DefaultFig8aConfig() Fig8Config {
	return Fig8Config{N: 6, Bonds: []int{2, 4, 8, 12}, ExactMax: 4, Ranks: 64, Seed: 3}
}

// DefaultFig8bConfig mirrors paper Figure 8b (15x15, 16 nodes). Bond 9 is
// included as a perfect square so the two-layer series gets a data point
// (state bond 3).
func DefaultFig8bConfig() Fig8Config {
	return Fig8Config{N: 8, Bonds: []int{2, 4, 9, 12}, ExactMax: 0, Ranks: 1024, Seed: 4}
}

// ExperimentFig8 benchmarks full contraction of a PEPS without physical
// indices as the bond dimension grows (paper Figure 8): the exact
// algorithm, BMPS, and IBMPS contract a directly generated one-layer
// network with contraction bond m equal to the initial bond r; two-layer
// IBMPS contracts the inner product of a state PEPS with bond sqrt(r)
// (hence the fewer data points, as in the paper). With dense=true the
// dense engine runs too (Figure 8a); otherwise only the distributed
// engine (Figure 8b).
func ExperimentFig8(w io.Writer, cfg Fig8Config, dense bool) {
	fmt.Fprintf(w, "Figure 8: contracting a %dx%d PEPS (no physical indices), m = r, %d ranks\n\n", cfg.N, cfg.N, cfg.Ranks)
	t := NewTable("r", "algorithm", "engine", "wall_s", "modeled_s")
	var timings []fig8Timing

	type engineRow struct {
		name string
		eng  backend.Engine
		grid *dist.Grid
	}
	mkEngines := func() []engineRow {
		grid := dist.NewGrid(dist.Stampede2(cfg.Ranks)).SetLabel("dist-gram")
		rows := []engineRow{}
		if dense {
			rows = append(rows, engineRow{"dense", denseEngine(), nil})
		}
		rows = append(rows, engineRow{"dist-gram", backend.Instrument(backend.NewDist(grid, true)), grid})
		return rows
	}

	for _, r := range cfg.Bonds {
		for _, er := range mkEngines() {
			rng := rand.New(rand.NewSource(cfg.Seed))
			net := peps.RandomNoPhys(er.eng, rng, cfg.N, cfg.N, r)
			algos := []struct {
				name string
				opt  peps.ContractOption
				skip bool
			}{
				{"exact", peps.Exact{}, r > cfg.ExactMax},
				{"bmps", peps.BMPS{M: r, Strategy: explicitStrategy()}, false},
				{"ibmps", peps.BMPS{M: r, Strategy: implicitStrategy(cfg.Seed + int64(r))}, false},
			}
			for _, a := range algos {
				if a.skip {
					continue
				}
				if er.grid != nil {
					er.grid.Reset()
				}
				wall := timeIt(func() { net.ContractScalar(a.opt) })
				modeled := wall
				if er.grid != nil {
					modeled = er.grid.Snapshot().ModeledSeconds()
				}
				t.Add(r, a.name, er.eng.Name(), wall, modeled)
				timings = append(timings, fig8Timing{r, a.name, er.eng.Name(), modeled})
			}
			// Two-layer IBMPS: only when r is a perfect square, contracting
			// the inner product of a state with bond sqrt(r).
			b := isqrt(r)
			if b*b == r && b >= 2 {
				rng2 := rand.New(rand.NewSource(cfg.Seed + 100))
				state := peps.Random(er.eng, rng2, cfg.N, cfg.N, 2, b)
				if er.grid != nil {
					er.grid.Reset()
				}
				wall := timeIt(func() {
					state.Inner(state, peps.TwoLayerBMPS{M: r, Strategy: implicitStrategy(cfg.Seed + int64(r) + 7)})
				})
				modeled := wall
				if er.grid != nil {
					modeled = er.grid.Snapshot().ModeledSeconds()
				}
				t.Add(r, "2layer-ibmps", er.eng.Name(), wall, modeled)
				timings = append(timings, fig8Timing{r, "2layer-ibmps", er.eng.Name(), modeled})
			}
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape, against the rows above (modeled_s, which is wall_s on the dense engine):")
	for _, line := range fig8Verdicts(timings) {
		fmt.Fprintln(w, line)
	}
}

// holds words the verdict on a paper relation checked against measured
// rows.
func holds(ok bool) string {
	if ok {
		return "holds"
	}
	return "does not hold"
}

// fig8Timing is one row of the Figure 8 table.
type fig8Timing struct {
	r         int
	algorithm string
	engine    string
	seconds   float64
}

// fig8Verdicts checks the paper's two relations per engine, from the
// measured rows alone: IBMPS beats BMPS by a factor that grows with r
// (ratio at the largest r above 1 and above the ratio at the smallest r),
// and two-layer IBMPS is the cheapest algorithm at the largest r it ran.
func fig8Verdicts(rows []fig8Timing) []string {
	at := func(engine, algorithm string, r int) (float64, bool) {
		for _, x := range rows {
			if x.engine == engine && x.algorithm == algorithm && x.r == r {
				return x.seconds, true
			}
		}
		return 0, false
	}
	var engines []string
	rs := map[string][]int{} // per engine, the r values in table order
	for _, x := range rows {
		if x.algorithm != "bmps" {
			continue
		}
		if _, ok := rs[x.engine]; !ok {
			engines = append(engines, x.engine)
		}
		rs[x.engine] = append(rs[x.engine], x.r)
	}
	var out []string
	for _, e := range engines {
		bonds := rs[e]
		lo, hi := bonds[0], bonds[len(bonds)-1]
		ratio := func(r int) float64 {
			b, _ := at(e, "bmps", r)
			i, _ := at(e, "ibmps", r)
			return b / i
		}
		out = append(out, fmt.Sprintf("  %s: bmps/ibmps = %.2f at r=%d and %.2f at r=%d; \"IBMPS beats BMPS with a factor growing in r\" %s",
			e, ratio(lo), lo, ratio(hi), hi, holds(ratio(hi) > 1 && ratio(hi) > ratio(lo))))
		for k := len(bonds) - 1; k >= 0; k-- {
			two, ok := at(e, "2layer-ibmps", bonds[k])
			if !ok {
				continue
			}
			b, _ := at(e, "bmps", bonds[k])
			i, _ := at(e, "ibmps", bonds[k])
			out = append(out, fmt.Sprintf("  %s: at r=%d 2layer-ibmps %s s, bmps %s s, ibmps %s s; \"two-layer IBMPS is cheapest where applicable\" %s",
				e, bonds[k], formatFloat(two), formatFloat(b), formatFloat(i), holds(two < b && two < i)))
			break
		}
	}
	return out
}

func isqrt(x int) int {
	for i := 0; i*i <= x; i++ {
		if i*i == x {
			return i
		}
	}
	// floor sqrt
	i := 0
	for (i+1)*(i+1) <= x {
		i++
	}
	return i
}
