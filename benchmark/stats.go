package main

import (
	"errors"
	"math"
	"sort"
)

// minP90Samples is the smallest sample a 90th percentile is reported
// from: it leaves ten samples beyond the percentile.
const minP90Samples = 100

var errTooFewForP90 = errors.New("fewer than 100 samples: a p90 would have fewer than ten samples beyond it")

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). xs is not modified; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 refuses samples too small to leave ten values beyond the
// percentile, so a short run cannot print a tail it did not measure.
func p90(xs []float64) (float64, error) {
	if len(xs) < minP90Samples {
		return math.NaN(), errTooFewForP90
	}
	return quantile(xs, 0.9), nil
}

// digits turns a relative error into "correct decimal digits", clamped
// at the 1e-16 resolution of float64.
func digits(relErr float64) float64 {
	return -math.Log10(math.Max(relErr, 1e-16))
}

// relErr is |got-want| / |want|.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// opResult is what one operation produced, as the harness saw it.
type opResult struct {
	value    float64 // the scalar the workload checks (norm, energy, fingerprint)
	maxBond  int     // largest bond of the output state; 0 when the op returns no state
	fellBack bool    // a randomized factorization degraded to the exact SVD during the op
	panicked bool    // the op panicked and the harness recovered it
	millis   float64 // wall time of the op, kept for failed ops too
}

// check is a workload's acceptance rule for one result.
type check struct {
	ref        float64 // reference value
	tol        float64 // largest accepted relative error against ref
	maxBond    int     // largest accepted bond; 0 disables the check
	noFallback bool    // a RandSVD fallback fails the op
}

// failed reports whether r misses c: a recovered panic, a NaN or Inf, a
// bond past the cap, a fallback where none is allowed, or an error past
// the tolerance.
func (c check) failed(r opResult) bool {
	switch {
	case r.panicked:
		return true
	case math.IsNaN(r.value) || math.IsInf(r.value, 0):
		return true
	case c.maxBond > 0 && r.maxBond > c.maxBond:
		return true
	case c.noFallback && r.fellBack:
		return true
	}
	return relErr(r.value, c.ref) > c.tol
}

// countFailed is the numerator of fail_ratio.
func countFailed(c check, rs []opResult) int {
	n := 0
	for _, r := range rs {
		if c.failed(r) {
			n++
		}
	}
	return n
}
