package main

import (
	"errors"
	"math"
	"testing"

	"gokoala/internal/peps"
)

func TestQuantilesOnKnownVectors(t *testing.T) {
	odd := []float64{5, 1, 4, 2, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median(%v) = %v, want 3", odd, got)
	}
	even := []float64{4, 1, 3, 2}
	if got := median(even); got != 2.5 {
		t.Errorf("median(%v) = %v, want 2.5", even, got)
	}
	if odd[0] != 5 {
		t.Errorf("median sorted its argument in place: %v", odd)
	}
	// 0..100: every quantile is its own percentage.
	ramp := make([]float64, 101)
	for i := range ramp {
		ramp[100-i] = float64(i)
	}
	if q1, q3 := quantile(ramp, 0.25), quantile(ramp, 0.75); q1 != 25 || q3 != 75 {
		t.Errorf("quartiles of 0..100 = %v and %v, want 25 and 75", q1, q3)
	}
	if got, err := p90(ramp); err != nil || got != 90 {
		t.Errorf("p90(0..100) = %v, %v, want 90", got, err)
	}
	// Interpolation between order statistics.
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("quantile({10,20}, .25) = %v, want 12.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}

func TestP90RefusesSmallSamples(t *testing.T) {
	xs := make([]float64, minP90Samples-1)
	if _, err := p90(xs); !errors.Is(err, errTooFewForP90) {
		t.Errorf("p90 of %d samples: err = %v, want errTooFewForP90", len(xs), err)
	}
	if _, err := p90(append(xs, 0)); err != nil {
		t.Errorf("p90 of %d samples: %v", minP90Samples, err)
	}
}

func TestDigits(t *testing.T) {
	if got := digits(1e-3); math.Abs(got-3) > 1e-12 {
		t.Errorf("digits(1e-3) = %v, want 3", got)
	}
	if got := digits(0); got != 16 {
		t.Errorf("digits(0) = %v, want the float64 clamp 16", got)
	}
}

func TestCheckFailureRules(t *testing.T) {
	c := check{ref: 2, tol: 0.1, maxBond: 4, noFallback: true}
	cases := []struct {
		name string
		r    opResult
		fail bool
	}{
		{"within tolerance", opResult{value: 2.1, maxBond: 4}, false},
		{"past tolerance", opResult{value: 2.3, maxBond: 4}, true},
		{"NaN", opResult{value: math.NaN()}, true},
		{"Inf", opResult{value: math.Inf(1)}, true},
		{"bond past the cap", opResult{value: 2, maxBond: 5}, true},
		{"fallback where none is allowed", opResult{value: 2, fellBack: true}, true},
		{"recovered panic", opResult{value: 2, panicked: true}, true},
	}
	for _, tc := range cases {
		if got := c.failed(tc.r); got != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.fail)
		}
	}
	lenient := check{ref: 2, tol: 0.1}
	if lenient.failed(opResult{value: 2, maxBond: 99, fellBack: true}) {
		t.Error("bond and fallback rules fired although the check does not set them")
	}
}

// A panicking operation and a NaN result each count as one failure, and
// the panicking one keeps a measured time.
func TestFailRatioCountsPanicAndNaN(t *testing.T) {
	inst := &instance{check: check{ref: 1, tol: 0.5}}
	inst.op = func(_ *peps.PEPS, i int, _ wrapFn) (float64, int) {
		switch i {
		case 1:
			panic("injected")
		case 2:
			return math.NaN(), 0
		}
		return 1, 0
	}
	p := runPass(inst, inputs{nil}, 4, 0, nil)
	if len(p.results) != 4 {
		t.Fatalf("ran %d operations, want 4", len(p.results))
	}
	if !p.results[1].panicked || p.results[1].millis <= 0 {
		t.Errorf("operation 1: %+v, want a recovered panic with its time kept", p.results[1])
	}
	if got := countFailed(inst.check, p.results); got != 2 {
		t.Errorf("countFailed = %d, want 2 (one panic, one NaN)", got)
	}
}
