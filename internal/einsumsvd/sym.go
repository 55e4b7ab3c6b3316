package einsumsvd

import (
	"fmt"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

// SymFactor evaluates a split spec over block-sparse operands: contract
// the network block by block, then factor sector by sector with a
// globally-truncated SVD. It is the explicit contract-then-SVD strategy
// for symmetric tensors — randomized sketching mixes charge sectors, so
// there is no implicit variant. The sigma mode scales the new bond the
// same way the dense assemble step does, per-column on the first factor
// and per-row on the second, with the singular values in the bond's
// canonical order (ascending sector charge, descending within a sector).
// truncErr is the relative discarded weight, as TruncReporter defines it.
func SymFactor(eng backend.SymEngine, mode SigmaMode, spec string, rank int, ops ...*tensor.Sym) (a, b *tensor.Sym, s []float64, truncErr float64, err error) {
	p, err := compiled(spec, shapesOf(ops))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("einsumsvd: sym factor %q: %v", spec, r)
		}
	}()
	full := eng.SymEinsum(p.fullSpec, ops...)
	u, s, vh := eng.SymSVDSplit(full, len(p.row), rank)
	truncErr = discardedWeight(s, full.Norm())
	uScale, vScale := mode.scales(s)
	scaleSymBond(u, u.Rank()-1, uScale)
	scaleSymBond(vh, 0, vScale)
	a = permuteTo(u, p.row+string(p.newLetter), p.out1)
	b = permuteTo(vh, string(p.newLetter)+p.col, p.out2)
	return a, b, s, truncErr, nil
}

// MustSymFactor is the panic-on-error form of SymFactor for constant
// specs in library code.
func MustSymFactor(eng backend.SymEngine, mode SigmaMode, spec string, rank int, ops ...*tensor.Sym) (*tensor.Sym, *tensor.Sym, []float64, float64) {
	a, b, s, te, err := SymFactor(eng, mode, spec, rank, ops...)
	if err != nil {
		panic(err.Error())
	}
	return a, b, s, te
}

// scaleSymBond multiplies slice j of the given axis by scale[off+j],
// where off is the bond leg's dense offset of the block's sector; scale
// is indexed in the bond's canonical order, matching the singular-value
// layout SymSVDSplit returns.
func scaleSymBond(t *tensor.Sym, axis int, scale []float64) {
	allOnes := true
	for _, x := range scale {
		if x != 1 {
			allOnes = false
			break
		}
	}
	if allOnes {
		return
	}
	leg := t.Leg(axis)
	offsets := leg.Offsets()
	t.EachBlock(func(sectors []int, blk *tensor.Dense) {
		off := offsets[sectors[axis]]
		shape := blk.Shape()
		inner := 1
		for i := axis + 1; i < len(shape); i++ {
			inner *= shape[i]
		}
		outer := 1
		for i := 0; i < axis; i++ {
			outer *= shape[i]
		}
		n := shape[axis]
		data := blk.Data()
		for o := 0; o < outer; o++ {
			for j := 0; j < n; j++ {
				sc := complex(scale[off+j], 0)
				base := (o*n + j) * inner
				for i := 0; i < inner; i++ {
					data[base+i] *= sc
				}
			}
		}
	})
}
