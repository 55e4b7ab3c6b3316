package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
)

func sampleSymITE(t *testing.T) *ITECheckpoint {
	t.Helper()
	se, ok := backend.SymOf(eng)
	if !ok {
		t.Fatal("dense engine must expose block-sparse kernels")
	}
	st := peps.SymComputationalBasis(se, 2, 2, 2, nil)
	obs := quantum.TransverseFieldIsingDual(2, 2, -1, -3.5)
	gates, ok := peps.SymTrotterGates(obs.TrotterGates(complex(-0.05, 0)), 2)
	if !ok {
		t.Fatal("dual TFI gates must conserve parity")
	}
	st.ApplyCircuit(gates, peps.UpdateOptions{Rank: 2, Normalize: true})
	return &ITECheckpoint{
		Step:       5,
		Seed:       42,
		Energies:   []float64{-0.5, -0.8},
		MeasuredAt: []int{2, 4},
		SymState:   st,
	}
}

// TestITEDenseFormatUnchanged pins the on-disk compatibility promise: a
// dense checkpoint still carries record version 1, so files written
// before the block-sparse backend existed load unchanged and vice versa.
func TestITEDenseFormatUnchanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dense.ckpt")
	if err := SaveITE(path, sampleITE(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 4 magic bytes, then the version as little-endian uint64.
	if string(raw[:4]) != iteMagic || raw[4] != version {
		t.Fatalf("dense checkpoint starts %q version %d, want %q version %d", raw[:4], raw[4], iteMagic, version)
	}
}

func TestITESymRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sym.ckpt")
	c := sampleSymITE(t)
	if err := SaveITE(path, c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != iteVersionSym {
		t.Fatalf("sym checkpoint version %d, want %d", raw[4], iteVersionSym)
	}

	got, err := LoadITE(path, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || got.Seed != c.Seed {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.State != nil || got.SymState == nil {
		t.Fatal("sym checkpoint must restore exactly the block-sparse state")
	}
	if got.SymState.Mod() != 2 || got.SymState.LogScale != c.SymState.LogScale {
		t.Fatalf("sym state header mismatch: mod %d logscale %g", got.SymState.Mod(), got.SymState.LogScale)
	}
	for r := 0; r < 2; r++ {
		for cc := 0; cc < 2; cc++ {
			gd := got.SymState.Site(r, cc).ToDense().Data()
			wd := c.SymState.Site(r, cc).ToDense().Data()
			if len(gd) != len(wd) {
				t.Fatalf("site (%d,%d) size changed", r, cc)
			}
			for i := range gd {
				if gd[i] != wd[i] {
					t.Fatalf("site (%d,%d) element %d not bit-identical", r, cc, i)
				}
			}
		}
	}

	// Canonical block order makes a save-load-save cycle byte-identical.
	path2 := filepath.Join(t.TempDir(), "again.ckpt")
	if err := SaveITE(path2, got); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("sym checkpoint save-load-save is not byte-identical")
	}
}

func TestSaveITERejectsAmbiguousState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	both := sampleSymITE(t)
	both.State = sampleITE(t).State
	if err := SaveITE(path, both); err == nil {
		t.Fatal("checkpoint with both states must be rejected")
	}
	neither := &ITECheckpoint{Step: 1, Energies: []float64{-1}, MeasuredAt: []int{1}}
	if err := SaveITE(path, neither); err == nil {
		t.Fatal("checkpoint with no state must be rejected")
	}
}
