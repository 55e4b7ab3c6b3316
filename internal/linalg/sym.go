// Block-wise factorizations of charge-symmetric tensors. A matricized
// symmetric tensor is block-diagonal over row charge: every stored block
// with row-sector charge q contributes to the dense sub-matrix of sector
// q, so QR and SVD factor each sector independently with the ordinary
// dense kernels (Householder QR, one-sided parallel Jacobi SVD), and
// truncation selects singular values globally across sectors. Sector
// assembly, factorization, and scatter-back all follow the canonical
// (ascending charge, lexicographic sector tuple) order, keeping results
// deterministic.
package linalg

import (
	"fmt"
	"sort"

	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// symSector is one row-charge sector of a matricized symmetric tensor.
type symSector struct {
	charge  int     // canonical row charge
	rowKeys [][]int // left sector tuples, sorted lexicographically
	colKeys [][]int // right sector tuples, sorted lexicographically
	rowOff  []int   // dense row offset of each rowKey
	colOff  []int
	rowDims []int // dense row extent of each rowKey
	colDims []int
	m, n    int
	mat     *tensor.Dense
}

// prodSectorDims returns the dense extent of a sector tuple over legs.
func prodSectorDims(legs []tensor.Leg, sectors []int) int {
	d := 1
	for i, s := range sectors {
		d *= legs[i].Dims[s]
	}
	return d
}

func lessIntSlice(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// symMatricize groups the blocks of t by row charge (over the first
// leftAxes legs) and assembles one dense matrix per sector, in ascending
// charge order. Only row/column sector tuples that appear in at least
// one stored block are included: absent tuples would contribute zero
// rows/columns, which change neither the factorization's action on the
// stored data nor its singular values.
func symMatricize(t *tensor.Sym, leftAxes int) []*symSector {
	if leftAxes <= 0 || leftAxes >= t.Rank() {
		panic(fmt.Sprintf("linalg: sym split leftAxes %d out of range for rank %d", leftAxes, t.Rank()))
	}
	legs := t.Legs()
	type group struct {
		rows map[string][]int
		cols map[string][]int
	}
	groups := map[int]*group{}
	keyOf := func(sec []int) string {
		b := make([]byte, len(sec))
		for i, s := range sec {
			b[i] = byte(s)
		}
		return string(b)
	}
	rowCharge := func(sec []int) int {
		q := 0
		for i := 0; i < leftAxes; i++ {
			q += legs[i].Dir * legs[i].Charges[sec[i]]
		}
		return tensor.CanonCharge(q, t.Mod())
	}
	t.EachBlock(func(sec []int, _ *tensor.Dense) {
		q := rowCharge(sec)
		g := groups[q]
		if g == nil {
			g = &group{rows: map[string][]int{}, cols: map[string][]int{}}
			groups[q] = g
		}
		row := append([]int{}, sec[:leftAxes]...)
		col := append([]int{}, sec[leftAxes:]...)
		g.rows[keyOf(row)] = row
		g.cols[keyOf(col)] = col
	})

	charges := make([]int, 0, len(groups))
	for q := range groups {
		charges = append(charges, q)
	}
	sort.Ints(charges)
	sectors := make([]*symSector, 0, len(charges))
	for _, q := range charges {
		g := groups[q]
		sec := &symSector{charge: q}
		for _, row := range g.rows {
			sec.rowKeys = append(sec.rowKeys, row)
		}
		for _, col := range g.cols {
			sec.colKeys = append(sec.colKeys, col)
		}
		sort.Slice(sec.rowKeys, func(i, j int) bool { return lessIntSlice(sec.rowKeys[i], sec.rowKeys[j]) })
		sort.Slice(sec.colKeys, func(i, j int) bool { return lessIntSlice(sec.colKeys[i], sec.colKeys[j]) })
		for _, row := range sec.rowKeys {
			sec.rowOff = append(sec.rowOff, sec.m)
			d := prodSectorDims(legs[:leftAxes], row)
			sec.rowDims = append(sec.rowDims, d)
			sec.m += d
		}
		for _, col := range sec.colKeys {
			sec.colOff = append(sec.colOff, sec.n)
			d := prodSectorDims(legs[leftAxes:], col)
			sec.colDims = append(sec.colDims, d)
			sec.n += d
		}
		sec.mat = tensor.New(sec.m, sec.n)
		sectors = append(sectors, sec)
	}

	// Scatter the stored blocks into their sector matrices.
	rowIndex := func(sec *symSector, row []int) int {
		for i, r := range sec.rowKeys {
			if keyOf(r) == keyOf(row) {
				return i
			}
		}
		panic("linalg: sym sector row lost")
	}
	colIndex := func(sec *symSector, col []int) int {
		for i, c := range sec.colKeys {
			if keyOf(c) == keyOf(col) {
				return i
			}
		}
		panic("linalg: sym sector col lost")
	}
	byCharge := map[int]*symSector{}
	for _, s := range sectors {
		byCharge[s.charge] = s
	}
	t.EachBlock(func(sec []int, b *tensor.Dense) {
		s := byCharge[rowCharge(sec)]
		ri := rowIndex(s, sec[:leftAxes])
		ci := colIndex(s, sec[leftAxes:])
		bm, bn := s.rowDims[ri], s.colDims[ci]
		src := b.Data()
		dst := s.mat.Data()
		for i := 0; i < bm; i++ {
			copy(dst[(s.rowOff[ri]+i)*s.n+s.colOff[ci]:(s.rowOff[ri]+i)*s.n+s.colOff[ci]+bn], src[i*bn:(i+1)*bn])
		}
	})
	return sectors
}

// bondLegFrom builds the new bond leg from per-sector kept counts,
// dropping empty sectors.
func bondLegFrom(sectors []*symSector, kept []int, dir int) (tensor.Leg, []int) {
	leg := tensor.Leg{Dir: dir}
	bondSector := make([]int, len(sectors)) // sector index on the bond leg, -1 if dropped
	for i := range bondSector {
		bondSector[i] = -1
	}
	for i, s := range sectors {
		if kept[i] <= 0 {
			continue
		}
		bondSector[i] = len(leg.Charges)
		leg.Charges = append(leg.Charges, s.charge)
		leg.Dims = append(leg.Dims, kept[i])
	}
	return leg, bondSector
}

// scatterLeft folds the per-sector row factors (m_g x k_g matrices,
// columns possibly truncated to kept[g]) into a symmetric tensor with
// legs leftLegs + bond(dir -1) and total charge 0.
func scatterLeft(t *tensor.Sym, leftAxes int, sectors []*symSector, facs []*tensor.Dense, kept []int) *tensor.Sym {
	legs := t.Legs()
	bond, bondSector := bondLegFrom(sectors, kept, -1)
	outLegs := append(append([]tensor.Leg{}, legs[:leftAxes]...), bond)
	out := tensor.NewSym(t.Mod(), 0, outLegs)
	for gi, s := range sectors {
		k := kept[gi]
		if k <= 0 {
			continue
		}
		f := facs[gi]
		fn := f.Dim(1) // full column count of the factor
		for ri, row := range s.rowKeys {
			shape := make([]int, 0, leftAxes+1)
			for i, sec := range row {
				shape = append(shape, legs[i].Dims[sec])
			}
			shape = append(shape, k)
			blk := tensor.New(shape...)
			bd, fd := blk.Data(), f.Data()
			for i := 0; i < s.rowDims[ri]; i++ {
				copy(bd[i*k:(i+1)*k], fd[(s.rowOff[ri]+i)*fn:(s.rowOff[ri]+i)*fn+k])
			}
			out.SetBlock(blk, append(append([]int{}, row...), bondSector[gi])...)
		}
	}
	return out
}

// scatterRight folds the per-sector column factors (k_g x n_g matrices,
// rows possibly truncated to kept[g]) into a symmetric tensor with legs
// bond(dir +1) + rightLegs and total charge equal to t's.
func scatterRight(t *tensor.Sym, leftAxes int, sectors []*symSector, facs []*tensor.Dense, kept []int) *tensor.Sym {
	legs := t.Legs()
	bond, bondSector := bondLegFrom(sectors, kept, +1)
	outLegs := append([]tensor.Leg{bond}, legs[leftAxes:]...)
	out := tensor.NewSym(t.Mod(), t.Total(), outLegs)
	for gi, s := range sectors {
		k := kept[gi]
		if k <= 0 {
			continue
		}
		f := facs[gi]
		for ci, col := range s.colKeys {
			cn := s.colDims[ci]
			shape := make([]int, 0, t.Rank()-leftAxes+1)
			shape = append(shape, k)
			for i, sec := range col {
				shape = append(shape, legs[leftAxes+i].Dims[sec])
			}
			blk := tensor.New(shape...)
			bd, fd := blk.Data(), f.Data()
			for j := 0; j < k; j++ {
				copy(bd[j*cn:(j+1)*cn], fd[j*s.n+s.colOff[ci]:j*s.n+s.colOff[ci]+cn])
			}
			out.SetBlock(blk, append([]int{bondSector[gi]}, col...)...)
		}
	}
	return out
}

// SymQRSplit is QRSplit for block-sparse symmetric tensors: the first
// leftAxes legs become Q's rows, factoring each row-charge sector with
// the dense Householder QR. Q carries the new bond with direction -1 and
// total charge 0; R carries the dual bond and t's total charge, so
// contracting Q·R over the bond reproduces t.
func SymQRSplit(t *tensor.Sym, leftAxes int) (q, r *tensor.Sym) {
	sectors := symMatricize(t, leftAxes)
	if len(sectors) == 0 {
		panic("linalg: SymQRSplit on a tensor with no blocks")
	}
	qs := make([]*tensor.Dense, len(sectors))
	rs := make([]*tensor.Dense, len(sectors))
	kept := make([]int, len(sectors))
	for i, s := range sectors {
		qg, rg := QR(s.mat)
		qs[i], rs[i] = qg, rg
		kept[i] = qg.Dim(1)
	}
	return scatterLeft(t, leftAxes, sectors, qs, kept), scatterRight(t, leftAxes, sectors, rs, kept)
}

// symSingular is one singular value with its sector provenance.
type symSingular struct {
	sigma float64
	group int // index into the ascending-charge sector list
	idx   int // position within the sector's descending spectrum
}

// SymSVDSplit factors t (first leftAxes legs as rows) into U, s, V†
// block by block: each row-charge sector gets a dense SVD, and the kept
// rank is chosen globally — the union spectrum is
// sorted descending (ties broken by ascending sector charge, then
// position) and the top min(rank, total) values survive. Within each
// sector the kept values are a prefix of its descending spectrum, so U
// keeps leading columns and V† leading rows. U carries the new bond
// (direction -1, total charge 0); V† carries the dual bond and t's
// total charge. The returned singular values follow the bond's
// canonical order: ascending sector charge, descending within a sector.
func SymSVDSplit(t *tensor.Sym, leftAxes, rank int) (u *tensor.Sym, s []float64, vh *tensor.Sym) {
	sectors := symMatricize(t, leftAxes)
	if len(sectors) == 0 {
		panic("linalg: SymSVDSplit on a tensor with no blocks")
	}
	us := make([]*tensor.Dense, len(sectors))
	vhs := make([]*tensor.Dense, len(sectors))
	sigmas := make([][]float64, len(sectors))
	var all []symSingular
	for i, sec := range sectors {
		ug, sg, vg := SVD(sec.mat)
		us[i] = ug
		sigmas[i] = sg
		// Store V† (k x n) so truncation slices rows.
		k := len(sg)
		vt := tensor.New(k, sec.n)
		vd, vtd := vg.Data(), vt.Data()
		for j := 0; j < k; j++ {
			for c := 0; c < sec.n; c++ {
				x := vd[c*k+j]
				vtd[j*sec.n+c] = complex(real(x), -imag(x))
			}
		}
		vhs[i] = vt
		for j, sv := range sg {
			all = append(all, symSingular{sigma: sv, group: i, idx: j})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].sigma != all[j].sigma {
			return all[i].sigma > all[j].sigma
		}
		if all[i].group != all[j].group {
			return all[i].group < all[j].group
		}
		return all[i].idx < all[j].idx
	})
	k := len(all)
	if rank > 0 && rank < k {
		k = rank
	}
	kept := make([]int, len(sectors))
	for _, sv := range all[:k] {
		kept[sv.group]++
	}
	if obs.Enabled() {
		global := make([]float64, len(all))
		for i, sv := range all {
			global[i] = sv.sigma
		}
		recordTruncation(global, k)
	}
	u = scatterLeft(t, leftAxes, sectors, us, kept)
	// V† factors already have the bond as rows; slice happens in scatter.
	vh = scatterRight(t, leftAxes, sectors, vhs, kept)
	for gi := range sectors {
		s = append(s, sigmas[gi][:kept[gi]]...)
	}
	return u, s, vh
}
