package peps

import (
	"bytes"
	"math"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/quantum"
)

func symEngine(t *testing.T) backend.SymEngine {
	t.Helper()
	se, ok := backend.SymOf(eng)
	if !ok {
		t.Fatal("dense engine must expose block-sparse kernels")
	}
	return se
}

func TestSymComputationalBasisMatchesDense(t *testing.T) {
	se := symEngine(t)
	bits := []int{0, 1, 1, 0, 1, 0}
	for _, mod := range []int{0, 2} {
		sp := SymComputationalBasis(se, mod, 2, 3, bits)
		dp := ComputationalBasis(eng, 2, 3, bits)
		for r := 0; r < 2; r++ {
			for c := 0; c < 3; c++ {
				got, want := sp.Site(r, c).ToDense(), dp.Site(r, c)
				gd, wd := got.Data(), want.Data()
				if len(gd) != len(wd) {
					t.Fatalf("mod %d site (%d,%d): size %d want %d", mod, r, c, len(gd), len(wd))
				}
				for i := range gd {
					if gd[i] != wd[i] {
						t.Fatalf("mod %d site (%d,%d) element %d: %v want %v", mod, r, c, i, gd[i], wd[i])
					}
				}
			}
		}
		if sp.NumBlocks() != 6 {
			t.Fatalf("mod %d: %d blocks, want one per site", mod, sp.NumBlocks())
		}
	}
}

func TestSymTrotterGatesConserving(t *testing.T) {
	// Every Trotter gate of the dual-frame TFI conserves Z2 parity, and
	// every gate of the U(1) J1-J2 form conserves particle number.
	obs := quantum.TransverseFieldIsingDual(2, 2, -1, -3.5)
	gates := obs.TrotterGates(complex(-0.05, 0))
	if sg, ok := SymTrotterGates(gates, 2); !ok || len(sg) != len(gates) {
		t.Fatalf("dual TFI gates must conserve Z2 parity (ok=%v, %d/%d)", ok, len(sg), len(gates))
	}
	obsU1 := quantum.J1J2HeisenbergU1(2, 2, quantum.PaperJ1J2ParamsU1())
	gatesU1 := obsU1.TrotterGates(complex(-0.05, 0))
	if _, ok := SymTrotterGates(gatesU1, 0); !ok {
		t.Fatal("U(1) J1-J2 gates must conserve particle number")
	}
}

func TestSymTrotterGatesFallback(t *testing.T) {
	// The plain TFI transverse field exp(-tau*hx*X) moves charge: the
	// whole list must be rejected, not partially converted.
	obs := quantum.TransverseFieldIsing(2, 2, -1, -3.5)
	gates := obs.TrotterGates(complex(-0.05, 0))
	if _, ok := SymTrotterGates(gates, 2); ok {
		t.Fatal("plain TFI gates must not convert under Z2")
	}
	// An Ry rotation is the classic non-conserving one-site gate.
	if _, ok := SymOneSiteGate(quantum.Ry(0.3), 0); ok {
		t.Fatal("Ry must not conserve U(1) charge")
	}
	if _, ok := SymOneSiteGate(quantum.Z(), 2); !ok {
		t.Fatal("Z must conserve parity")
	}
}

// applyDenseGates mirrors the symmetric circuit application on the dense
// path: same order, explicit balanced-sigma refactorization.
func applyDenseGates(p *PEPS, gates []quantum.TrotterGate, rank int) {
	p.ApplyCircuit(gates, UpdateOptions{
		Rank:      rank,
		Strategy:  einsumsvd.Explicit{Mode: einsumsvd.SigmaBoth},
		Normalize: true,
	})
}

func symEnergy(t *testing.T, p *PEPS, obs *quantum.Observable) float64 {
	t.Helper()
	return p.EnergyPerSite(obs, ExpectationOptions{M: 16, Strategy: einsumsvd.Explicit{}})
}

func TestSymCircuitMatchesDenseTFI(t *testing.T) {
	// One exact (untruncated) Trotter sweep of the dual-frame TFI: the
	// block-sparse evolution embedded to dense must give the same energy
	// as the dense evolution of the same gates to near machine precision.
	se := symEngine(t)
	obs := quantum.TransverseFieldIsingDual(2, 2, -1, -3.5)
	gates := obs.TrotterGates(complex(-0.05, 0))
	symGates, ok := SymTrotterGates(gates, 2)
	if !ok {
		t.Fatal("dual TFI must convert")
	}

	sp := SymComputationalBasis(se, 2, 2, 2, nil)
	dp := sp.ToDense()
	for sweep := 0; sweep < 2; sweep++ {
		sp.ApplyCircuit(symGates, UpdateOptions{Normalize: true})
		applyDenseGates(dp, gates, 0)
	}
	eSym := symEnergy(t, sp.ToDense(), obs)
	eDense := symEnergy(t, dp, obs)
	if math.Abs(eSym-eDense) > 1e-10 {
		t.Fatalf("energies differ: sym %.15g dense %.15g", eSym, eDense)
	}
	// Parity bookkeeping: the all-zeros start is even, and every site
	// keeps a definite total charge.
	if got := sp.Site(0, 0).Mod(); got != 2 {
		t.Fatalf("mod drifted to %d", got)
	}
}

func TestSymCircuitMatchesDenseU1Routed(t *testing.T) {
	// The U(1) J1-J2 circuit includes diagonal pairs routed via SWAP
	// chains; with truncation to rank 4 (exact here) sym and dense stay
	// in agreement from the Neel start.
	se := symEngine(t)
	obs := quantum.J1J2HeisenbergU1(2, 2, quantum.PaperJ1J2ParamsU1())
	gates := obs.TrotterGates(complex(-0.05, 0))
	symGates, ok := SymTrotterGates(gates, 0)
	if !ok {
		t.Fatal("U(1) J1-J2 must convert")
	}
	bits := quantum.NeelBits(2, 2)
	sp := SymComputationalBasis(se, 0, 2, 2, bits)
	dp := sp.ToDense()
	sp.ApplyCircuit(symGates, UpdateOptions{Rank: 4, Normalize: true})
	applyDenseGates(dp, gates, 4)
	eSym := symEnergy(t, sp.ToDense(), obs)
	eDense := symEnergy(t, dp, obs)
	if math.Abs(eSym-eDense) > 1e-10 {
		t.Fatalf("energies differ: sym %.15g dense %.15g", eSym, eDense)
	}
}

func TestSymStateSavingsPositive(t *testing.T) {
	se := symEngine(t)
	obs := quantum.TransverseFieldIsingDual(2, 3, -1, -3.5)
	gates := obs.TrotterGates(complex(-0.05, 0))
	symGates, _ := SymTrotterGates(gates, 2)
	sp := SymComputationalBasis(se, 2, 2, 3, nil)
	for i := 0; i < 3; i++ {
		sp.ApplyCircuit(symGates, UpdateOptions{Rank: 4, Normalize: true})
	}
	if sp.StateBytes() >= sp.DenseEquivBytes() {
		t.Fatalf("no memory saving: stored %d dense %d", sp.StateBytes(), sp.DenseEquivBytes())
	}
	if sp.MaxBond() < 2 {
		t.Fatal("bond did not grow")
	}
}

func TestSymSerializeRoundTrip(t *testing.T) {
	se := symEngine(t)
	obs := quantum.TransverseFieldIsingDual(2, 2, -1, -3.5)
	gates := obs.TrotterGates(complex(-0.05, 0))
	symGates, _ := SymTrotterGates(gates, 2)
	sp := SymComputationalBasis(se, 2, 2, 2, nil)
	sp.ApplyCircuit(symGates, UpdateOptions{Rank: 2, Normalize: true})

	var buf1 bytes.Buffer
	if err := sp.Save(&buf1); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSym(bytes.NewReader(buf1.Bytes()), se)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != sp.Rows || back.Cols != sp.Cols || back.LogScale != sp.LogScale || back.Mod() != sp.Mod() {
		t.Fatal("header fields did not round-trip")
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			gd, wd := back.Site(r, c).ToDense().Data(), sp.Site(r, c).ToDense().Data()
			if len(gd) != len(wd) {
				t.Fatalf("site (%d,%d) size changed", r, c)
			}
			for i := range gd {
				if gd[i] != wd[i] {
					t.Fatalf("site (%d,%d) element %d: %v want %v", r, c, i, gd[i], wd[i])
				}
			}
		}
	}
	// Serialization is byte-deterministic: canonical block order makes a
	// save-load-save cycle reproduce the stream exactly.
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("save-load-save is not byte-identical")
	}
}

func TestLoadSymRejectsCorrupt(t *testing.T) {
	se := symEngine(t)
	sp := SymComputationalBasis(se, 2, 2, 2, nil)
	var buf bytes.Buffer
	if err := sp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := LoadSym(bytes.NewReader(raw[:len(raw)/2]), se); err == nil {
		t.Fatal("truncated stream must fail")
	}
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xff
	if _, err := LoadSym(bytes.NewReader(bad), se); err == nil {
		t.Fatal("bad magic must fail")
	}
}
