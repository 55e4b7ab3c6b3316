package peps

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

// Block-sparse state serialization. Layout (all little-endian):
//
//	magic "SPEP" | version u32 | mod i64 | rows u32 | cols u32 |
//	logscale f64 | per site (row-major):
//	  total i64
//	  per leg (5): dir i32, nsec u32, per sector: charge i64, dim u32
//	  nblocks u32
//	  per block (canonical sector order): sectors [5]u32,
//	    data [size]{f64,f64}
//
// Blocks are written in the canonical sorted-key order, so identical
// states serialize to identical bytes — the property the bit-identical
// resume test relies on.
const (
	symSerializeMagic   = "SPEP"
	symSerializeVersion = 1
)

// Save writes the block-sparse state to w.
func (p *SymPEPS) Save(w io.Writer) error {
	if _, err := io.WriteString(w, symSerializeMagic); err != nil {
		return fmt.Errorf("peps: sym save: %w", err)
	}
	werr := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := werr(uint32(symSerializeVersion)); err != nil {
		return fmt.Errorf("peps: sym save: %w", err)
	}
	if err := werr(int64(p.Mod())); err != nil {
		return fmt.Errorf("peps: sym save: %w", err)
	}
	if err := werr([]uint32{uint32(p.Rows), uint32(p.Cols)}); err != nil {
		return fmt.Errorf("peps: sym save: %w", err)
	}
	if err := werr(p.LogScale); err != nil {
		return fmt.Errorf("peps: sym save: %w", err)
	}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t := p.sites[r][c]
			if err := werr(int64(t.Total())); err != nil {
				return fmt.Errorf("peps: sym save: %w", err)
			}
			for ax := 0; ax < t.Rank(); ax++ {
				l := t.Leg(ax)
				if err := werr(int32(l.Dir)); err != nil {
					return fmt.Errorf("peps: sym save: %w", err)
				}
				if err := werr(uint32(l.NumSectors())); err != nil {
					return fmt.Errorf("peps: sym save: %w", err)
				}
				for i := range l.Charges {
					if err := werr(int64(l.Charges[i])); err != nil {
						return fmt.Errorf("peps: sym save: %w", err)
					}
					if err := werr(uint32(l.Dims[i])); err != nil {
						return fmt.Errorf("peps: sym save: %w", err)
					}
				}
			}
			if err := werr(uint32(t.NumBlocks())); err != nil {
				return fmt.Errorf("peps: sym save: %w", err)
			}
			var saveErr error
			t.EachBlock(func(sectors []int, b *tensor.Dense) {
				if saveErr != nil {
					return
				}
				sec := make([]uint32, len(sectors))
				for i, s := range sectors {
					sec[i] = uint32(s)
				}
				if err := werr(sec); err != nil {
					saveErr = err
					return
				}
				buf := make([]float64, 0, 2*b.Size())
				for _, v := range b.Data() {
					buf = append(buf, real(v), imag(v))
				}
				saveErr = werr(buf)
			})
			if saveErr != nil {
				return fmt.Errorf("peps: sym save: %w", saveErr)
			}
		}
	}
	return nil
}

// LoadSym reads a state written by (*SymPEPS).Save, attaching the given
// block-sparse engine. Corrupt input comes back as an error, never a
// panic.
func LoadSym(r io.Reader, eng backend.SymEngine) (p *SymPEPS, err error) {
	defer func() {
		// The tensor constructors panic on inconsistent inputs; for
		// untrusted checkpoint bytes that must surface as an error.
		if rec := recover(); rec != nil {
			p, err = nil, fmt.Errorf("peps: sym load: %v", rec)
		}
	}()
	magic := make([]byte, len(symSerializeMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("peps: sym load: %w", err)
	}
	if string(magic) != symSerializeMagic {
		return nil, fmt.Errorf("peps: sym load: bad magic %q", magic)
	}
	rerr := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var version uint32
	if err := rerr(&version); err != nil {
		return nil, fmt.Errorf("peps: sym load: %w", err)
	}
	if version != symSerializeVersion {
		return nil, fmt.Errorf("peps: sym load: unsupported version %d", version)
	}
	var mod int64
	if err := rerr(&mod); err != nil {
		return nil, fmt.Errorf("peps: sym load: %w", err)
	}
	if mod < 0 || mod > 1<<16 {
		return nil, fmt.Errorf("peps: sym load: implausible mod %d", mod)
	}
	var dims [2]uint32
	if err := rerr(&dims); err != nil {
		return nil, fmt.Errorf("peps: sym load: %w", err)
	}
	rows, cols := int(dims[0]), int(dims[1])
	if rows <= 0 || cols <= 0 || rows > 1<<12 || cols > 1<<12 {
		return nil, fmt.Errorf("peps: sym load: implausible lattice %dx%d", rows, cols)
	}
	var logScale float64
	if err := rerr(&logScale); err != nil {
		return nil, fmt.Errorf("peps: sym load: %w", err)
	}
	if math.IsNaN(logScale) || math.IsInf(logScale, 0) {
		return nil, fmt.Errorf("peps: sym load: invalid log scale")
	}
	sites := make([][]*tensor.Sym, rows)
	for rr := 0; rr < rows; rr++ {
		sites[rr] = make([]*tensor.Sym, cols)
		for cc := 0; cc < cols; cc++ {
			t, err := loadSymSite(r, int(mod))
			if err != nil {
				return nil, fmt.Errorf("peps: sym load site (%d,%d): %w", rr, cc, err)
			}
			sites[rr][cc] = t
		}
	}
	p = &SymPEPS{lattice: gridOf(sites, logScale), eng: eng}
	if err := p.checkValid(); err != nil {
		return nil, fmt.Errorf("peps: sym load: %w", err)
	}
	return p, nil
}

func loadSymSite(r io.Reader, mod int) (*tensor.Sym, error) {
	rerr := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var total int64
	if err := rerr(&total); err != nil {
		return nil, err
	}
	if total < -(1<<30) || total > 1<<30 {
		return nil, fmt.Errorf("implausible total charge %d", total)
	}
	legs := make([]tensor.Leg, 5)
	for ax := range legs {
		var dir int32
		if err := rerr(&dir); err != nil {
			return nil, err
		}
		if dir != 1 && dir != -1 {
			return nil, fmt.Errorf("leg %d: invalid direction %d", ax, dir)
		}
		var nsec uint32
		if err := rerr(&nsec); err != nil {
			return nil, err
		}
		if nsec == 0 || nsec > 255 {
			return nil, fmt.Errorf("leg %d: implausible sector count %d", ax, nsec)
		}
		l := tensor.Leg{Dir: int(dir)}
		for i := 0; i < int(nsec); i++ {
			var q int64
			var d uint32
			if err := rerr(&q); err != nil {
				return nil, err
			}
			if err := rerr(&d); err != nil {
				return nil, err
			}
			if q < -(1<<30) || q > 1<<30 {
				return nil, fmt.Errorf("leg %d: implausible charge %d", ax, q)
			}
			if d == 0 || d > 1<<20 {
				return nil, fmt.Errorf("leg %d: implausible sector dim %d", ax, d)
			}
			l.Charges = append(l.Charges, int(q))
			l.Dims = append(l.Dims, int(d))
		}
		legs[ax] = l
	}
	t := tensor.NewSym(mod, int(total), legs)
	var nblocks uint32
	if err := rerr(&nblocks); err != nil {
		return nil, err
	}
	if nblocks > 1<<20 {
		return nil, fmt.Errorf("implausible block count %d", nblocks)
	}
	for bi := 0; bi < int(nblocks); bi++ {
		var sec [5]uint32
		if err := rerr(&sec); err != nil {
			return nil, err
		}
		sectors := make([]int, 5)
		shape := make([]int, 5)
		size := 1
		for i, s := range sec {
			if int(s) >= legs[i].NumSectors() {
				return nil, fmt.Errorf("block %d: sector %d out of range on leg %d", bi, s, i)
			}
			sectors[i] = int(s)
			shape[i] = legs[i].Dims[s]
			size *= shape[i]
			if size > maxSiteElems {
				return nil, fmt.Errorf("block %d exceeds %d elements", bi, maxSiteElems)
			}
		}
		if !t.Allowed(sectors) {
			return nil, fmt.Errorf("block %d: sectors violate charge conservation", bi)
		}
		buf := make([]float64, 2*size)
		if err := rerr(buf); err != nil {
			return nil, err
		}
		data := make([]complex128, size)
		for i := range data {
			re, im := buf[2*i], buf[2*i+1]
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				return nil, fmt.Errorf("block %d: non-finite amplitude at element %d", bi, i)
			}
			data[i] = complex(re, im)
		}
		t.SetBlock(tensor.FromData(data, shape...), sectors...)
	}
	return t, nil
}
