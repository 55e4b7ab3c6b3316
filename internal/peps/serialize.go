package peps

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

// Serialization: a compact binary format for checkpointing PEPS states
// across long evolutions. Layout (all little-endian):
//
//	magic "PEPS" | version u32 | rows u32 | cols u32 | logscale f64 |
//	per site (row-major): rank u32, dims [rank]u32, data [size]{f64,f64}
const (
	serializeMagic   = "PEPS"
	serializeVersion = 1

	// maxSiteElems bounds a single site tensor's element count during
	// Load (2^28 complex128s is already 4 GiB); it guards both against
	// absurd allocations from corrupt headers and against int overflow
	// in the dims product.
	maxSiteElems = 1 << 28
)

// Save writes the state to w in the checkpoint format.
func (p *PEPS) Save(w io.Writer) error {
	if _, err := io.WriteString(w, serializeMagic); err != nil {
		return fmt.Errorf("peps: save: %w", err)
	}
	hdr := []uint32{serializeVersion, uint32(p.Rows), uint32(p.Cols)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("peps: save: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, p.LogScale); err != nil {
		return fmt.Errorf("peps: save: %w", err)
	}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t := p.sites[r][c]
			shape := t.Shape()
			if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
				return fmt.Errorf("peps: save: %w", err)
			}
			dims := make([]uint32, len(shape))
			for i, d := range shape {
				dims[i] = uint32(d)
			}
			if err := binary.Write(w, binary.LittleEndian, dims); err != nil {
				return fmt.Errorf("peps: save: %w", err)
			}
			buf := make([]float64, 0, 2*t.Size())
			for _, v := range t.Data() {
				buf = append(buf, real(v), imag(v))
			}
			if err := binary.Write(w, binary.LittleEndian, buf); err != nil {
				return fmt.Errorf("peps: save: %w", err)
			}
		}
	}
	return nil
}

// Load reads a state written by Save, attaching the given engine.
func Load(r io.Reader, eng backend.Engine) (*PEPS, error) {
	magic := make([]byte, len(serializeMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("peps: load: %w", err)
	}
	if string(magic) != serializeMagic {
		return nil, fmt.Errorf("peps: load: bad magic %q", magic)
	}
	var hdr [3]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("peps: load: %w", err)
	}
	if hdr[0] != serializeVersion {
		return nil, fmt.Errorf("peps: load: unsupported version %d", hdr[0])
	}
	rows, cols := int(hdr[1]), int(hdr[2])
	if rows <= 0 || cols <= 0 || rows > 1<<12 || cols > 1<<12 {
		return nil, fmt.Errorf("peps: load: implausible lattice %dx%d", rows, cols)
	}
	var logScale float64
	if err := binary.Read(r, binary.LittleEndian, &logScale); err != nil {
		return nil, fmt.Errorf("peps: load: %w", err)
	}
	if math.IsNaN(logScale) || math.IsInf(logScale, 0) {
		return nil, fmt.Errorf("peps: load: invalid log scale")
	}
	sites := make([][]*tensor.Dense, rows)
	for rr := 0; rr < rows; rr++ {
		sites[rr] = make([]*tensor.Dense, cols)
		for cc := 0; cc < cols; cc++ {
			var rank uint32
			if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
				return nil, fmt.Errorf("peps: load site (%d,%d): %w", rr, cc, err)
			}
			if rank != 5 {
				return nil, fmt.Errorf("peps: load site (%d,%d): rank %d, want 5", rr, cc, rank)
			}
			dims := make([]uint32, rank)
			if err := binary.Read(r, binary.LittleEndian, dims); err != nil {
				return nil, fmt.Errorf("peps: load site (%d,%d): %w", rr, cc, err)
			}
			shape := make([]int, rank)
			size := 1
			for i, d := range dims {
				if d == 0 || d > 1<<20 {
					return nil, fmt.Errorf("peps: load site (%d,%d): implausible dim %d", rr, cc, d)
				}
				shape[i] = int(d)
				size *= int(d)
				// Cap the cumulative element count: five dims of up to
				// 2^20 each can overflow int through this product, and
				// even before overflow a fabricated multi-terabyte site
				// must be rejected rather than allocated.
				if size > maxSiteElems {
					return nil, fmt.Errorf("peps: load site (%d,%d): site size exceeds %d elements", rr, cc, maxSiteElems)
				}
			}
			buf := make([]float64, 2*size)
			if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
				return nil, fmt.Errorf("peps: load site (%d,%d): %w", rr, cc, err)
			}
			data := make([]complex128, size)
			for i := range data {
				re, im := buf[2*i], buf[2*i+1]
				if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
					return nil, fmt.Errorf("peps: load site (%d,%d): non-finite amplitude at element %d", rr, cc, i)
				}
				data[i] = complex(re, im)
			}
			sites[rr][cc] = tensor.FromData(data, shape...)
		}
	}
	p := &PEPS{lattice: gridOf(sites, logScale), eng: eng}
	// Untrusted input: a corrupt checkpoint must come back as an error a
	// resuming run can handle, never a panic.
	if err := p.checkValid(); err != nil {
		return nil, fmt.Errorf("peps: load: %w", err)
	}
	return p, nil
}
