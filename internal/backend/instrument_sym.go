package backend

import (
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Obs counters for the block-sparse path. The dense-equivalent flop
// counter is what a dense contraction of the same total-dimension
// signature would have cost; comparing it with einsum.sym.flops is the
// measured symmetry saving.
var (
	obsSymContracts  = obs.NewCounter("einsum.sym.contractions")
	obsSymBlocks     = obs.NewCounter("einsum.sym.blocks")
	obsSymFlops      = obs.NewCounter("einsum.sym.flops")
	obsSymDenseFlops = obs.NewCounter("einsum.sym.dense_equiv_flops")
)

// InstrumentedSym is Instrumented for engines that also implement the
// block-sparse kernels; Instrument returns it automatically so the
// capability survives wrapping.
type InstrumentedSym struct {
	*Instrumented
	symInner SymEngine
}

var _ SymEngine = (*InstrumentedSym)(nil)

// checkSymTensor runs the NaN/Inf stage guard over every stored block.
func checkSymTensor(stage string, t *tensor.Sym) {
	if !health.Checking() {
		return
	}
	t.EachBlock(func(_ []int, b *tensor.Dense) {
		health.CheckTensor(stage, b)
	})
}

func (ie *InstrumentedSym) SymEinsum(spec string, ops ...*tensor.Sym) *tensor.Sym {
	reg := ie.begin("einsum.sym")
	reg.sp.SetStr("spec", spec)
	var out *tensor.Sym
	if _, ok := ie.inner.(*Dense); ok && obs.Enabled() {
		// The dense engine's own path with the counting observers added.
		var cost einsum.SymCost
		var err error
		out, cost, err = einsum.ContractSymWithHooks(spec, ops, countingHooks)
		if err != nil {
			reg.sp.End()
			panic("backend: " + err.Error())
		}
		obsSymBlocks.Add(cost.Blocks)
		obsSymFlops.Add(cost.Flops)
		obsSymDenseFlops.Add(cost.DenseFlops)
		reg.sp.SetInt("blocks", cost.Blocks)
		reg.sp.SetInt("sectors", int64(cost.MaxSectors))
		reg.sp.SetInt("dense_equiv_flops", cost.DenseFlops)
		obs.Observe("einsum.sym.sectors", float64(cost.MaxSectors))
	} else {
		out = ie.symInner.SymEinsum(spec, ops...)
	}
	obsContracts.Add(1)
	obsSymContracts.Add(1)
	ie.end(reg)
	checkSymTensor("backend.symeinsum", out)
	return out
}

func (ie *InstrumentedSym) SymQRSplit(t *tensor.Sym, leftAxes int) (*tensor.Sym, *tensor.Sym) {
	reg := ie.begin("backend.symqrsplit")
	q, r := ie.symInner.SymQRSplit(t, leftAxes)
	if reg.sp != nil {
		reg.sp.SetInt("sectors", int64(q.Leg(q.Rank()-1).NumSectors()))
	}
	ie.end(reg)
	checkSymTensor("backend.symqrsplit", q)
	checkSymTensor("backend.symqrsplit", r)
	return q, r
}

func (ie *InstrumentedSym) SymSVDSplit(t *tensor.Sym, leftAxes, rank int) (*tensor.Sym, []float64, *tensor.Sym) {
	reg := ie.begin("backend.symsvd")
	u, s, vh := ie.symInner.SymSVDSplit(t, leftAxes, rank)
	if reg.sp != nil {
		reg.sp.SetInt("rank", int64(len(s)))
		reg.sp.SetInt("sectors", int64(u.Leg(u.Rank()-1).NumSectors()))
	}
	ie.end(reg)
	checkSymTensor("backend.symsvd", u)
	checkSymTensor("backend.symsvd", vh)
	health.CheckFloats("backend.symsvd", s)
	return u, s, vh
}
