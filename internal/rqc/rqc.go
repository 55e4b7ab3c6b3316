// Package rqc generates Google-style random quantum circuits on a square
// lattice (paper Figure 10 workload, following references [53], [54]):
// each layer applies a random single-qubit gate from {sqrtX, sqrtY,
// sqrtW} to every qubit, and entangling layers apply iSWAP to all pairs
// of one of the four neighbor patterns in rotation. Applying all four
// patterns multiplies the PEPS bond dimension by up to 4 (2 per
// direction), so 8 layers of this construction reach initial bond
// dimension 16 as in the paper's RQC benchmark.
package rqc

import (
	"math/rand"

	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/telemetry"
	"gokoala/internal/tensor"
)

// Pattern enumerates the four nearest-neighbor two-qubit gate layouts.
type Pattern int

const (
	// HorizontalEven couples (r, 2k)-(r, 2k+1).
	HorizontalEven Pattern = iota
	// HorizontalOdd couples (r, 2k+1)-(r, 2k+2).
	HorizontalOdd
	// VerticalEven couples (2k, c)-(2k+1, c).
	VerticalEven
	// VerticalOdd couples (2k+1, c)-(2k+2, c).
	VerticalOdd
)

// PatternPairs returns the site-index pairs of a pattern on a
// rows-by-cols lattice.
func PatternPairs(p Pattern, rows, cols int) [][2]int {
	site := func(r, c int) int { return r*cols + c }
	var out [][2]int
	switch p {
	case HorizontalEven, HorizontalOdd:
		start := 0
		if p == HorizontalOdd {
			start = 1
		}
		for r := 0; r < rows; r++ {
			for c := start; c+1 < cols; c += 2 {
				out = append(out, [2]int{site(r, c), site(r, c+1)})
			}
		}
	case VerticalEven, VerticalOdd:
		start := 0
		if p == VerticalOdd {
			start = 1
		}
		for r := start; r+1 < rows; r += 2 {
			for c := 0; c < cols; c++ {
				out = append(out, [2]int{site(r, c), site(r+1, c)})
			}
		}
	}
	return out
}

// Circuit is a generated random circuit.
type Circuit struct {
	Rows, Cols int
	Gates      []quantum.TrotterGate
	// Layers is the number of layers generated.
	Layers int
}

// Generate builds a `layers`-deep random circuit. Layer k applies random
// single-qubit gates to all sites followed by iSWAP on pattern k mod 4.
// The single-qubit gate on each site is drawn from {sqrtX, sqrtY, sqrtW}
// with the constraint that it differs from the gate the site received in
// the previous layer (the Google RQC rule).
func Generate(rng *rand.Rand, rows, cols, layers int) Circuit {
	n := rows * cols
	single := []*tensor.Dense{quantum.SqrtX(), quantum.SqrtY(), quantum.SqrtW()}
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	var gates []quantum.TrotterGate
	for layer := 0; layer < layers; layer++ {
		for s := 0; s < n; s++ {
			choice := rng.Intn(len(single))
			for choice == prev[s] {
				choice = rng.Intn(len(single))
			}
			prev[s] = choice
			gates = append(gates, quantum.TrotterGate{Sites: []int{s}, Gate: single[choice]})
		}
		for _, pr := range PatternPairs(Pattern(layer%4), rows, cols) {
			gates = append(gates, quantum.TrotterGate{Sites: []int{pr[0], pr[1]}, Gate: quantum.ISwap()})
		}
	}
	return Circuit{Rows: rows, Cols: cols, Gates: gates, Layers: layers}
}

// RandomBits returns a random measurement bit string for amplitude
// queries.
func RandomBits(rng *rand.Rand, n int) []int {
	bits := make([]int, n)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	return bits
}

// Apply evolves state through the circuit gate by gate, publishing
// per-gate progress telemetry (gate index, circuit size, current max
// bond dimension) so a live watcher can follow the bond-dimension
// growth of a deep circuit. stop, when non-nil, is polled between gates
// for graceful interruption; Apply returns how many gates were applied
// (len(c.Gates) on a full evolution).
func Apply(state *peps.PEPS, c Circuit, opts peps.UpdateOptions, stop func() bool) int {
	for i, g := range c.Gates {
		if stop != nil && stop() {
			telemetry.Publish("rqc.stop", i, nil)
			return i
		}
		state.ApplyGate(g, opts)
		if obs.Enabled() {
			fields := map[string]float64{
				"gate":        float64(i + 1),
				"gates_total": float64(len(c.Gates)),
				"max_bond":    float64(state.MaxBond()),
			}
			obs.Observe("rqc.gate", float64(i+1))
			obs.Observe("rqc.max_bond", fields["max_bond"])
			telemetry.Publish("rqc.gate", i+1, fields)
		}
	}
	return len(c.Gates)
}
