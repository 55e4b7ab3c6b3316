package peps

import (
	"fmt"
	"math"
)

// siteTensor is what the state container and the two-site update need
// from a site tensor. *tensor.Dense and *tensor.Sym both provide it, so
// the lattice algorithms below are written once for either kind.
type siteTensor[T any] interface {
	comparable
	Rank() int
	Shape() []int
	Clone() T
	Transpose(perm ...int) T
	Norm() float64
	ScaleInPlace(alpha complex128)
}

// lattice is the state container PEPS and SymPEPS embed: the site grid,
// its addressing, and the global scale. The represented amplitudes are
// the network contraction times exp(LogScale); the scale factor keeps
// site tensors O(1) across long imaginary-time evolutions.
type lattice[T siteTensor[T]] struct {
	Rows, Cols int
	// LogScale is the log of a global positive prefactor on all
	// amplitudes, maintained by normalizing updates.
	LogScale float64

	sites [][]T
}

// gridOf wraps a rectangular, non-empty site grid.
func gridOf[T siteTensor[T]](sites [][]T, logScale float64) lattice[T] {
	return lattice[T]{Rows: len(sites), Cols: len(sites[0]), LogScale: logScale, sites: sites}
}

// mapSites builds the grid f(site) of the same shape.
func mapSites[T, U any](sites [][]T, f func(T) U) [][]U {
	out := make([][]U, len(sites))
	for r, row := range sites {
		out[r] = make([]U, len(row))
		for c, t := range row {
			out[r][c] = f(t)
		}
	}
	return out
}

// checkValid verifies lattice shape and — through the two predicates a
// tensor kind supplies — that boundary bonds are trivial and that every
// shared bond matches between its two endpoints, returning the first
// inconsistency as an error. New states panic on it (an inconsistent
// lattice is a programming error); loaders of untrusted bytes return it.
func (l *lattice[T]) checkValid(trivial func(t T, axis int) bool, matched func(a T, axisA int, b T, axisB int) bool) error {
	var missing T
	for r := 0; r < l.Rows; r++ {
		if len(l.sites[r]) != l.Cols {
			return fmt.Errorf("peps: ragged row %d", r)
		}
		for c := 0; c < l.Cols; c++ {
			t := l.sites[r][c]
			if t == missing {
				return fmt.Errorf("peps: missing site (%d,%d)", r, c)
			}
			if t.Rank() != 5 {
				return fmt.Errorf("peps: site (%d,%d) has rank %d, want 5", r, c, t.Rank())
			}
			for axis, name := range [4]string{"top", "left", "bottom", "right"} {
				onBoundary := [4]bool{r == 0, c == 0, r == l.Rows-1, c == l.Cols-1}[axis]
				if onBoundary && !trivial(t, axis) {
					return fmt.Errorf("peps: site (%d,%d) %s boundary bond not trivial", r, c, name)
				}
			}
			if r+1 < l.Rows && !matched(t, 2, l.sites[r+1][c], 0) {
				return fmt.Errorf("peps: vertical bond mismatch at (%d,%d)", r, c)
			}
			if c+1 < l.Cols && !matched(t, 3, l.sites[r][c+1], 1) {
				return fmt.Errorf("peps: horizontal bond mismatch at (%d,%d)", r, c)
			}
		}
	}
	return nil
}

// Site returns the tensor at (row, col).
func (l *lattice[T]) Site(r, c int) T { return l.sites[r][c] }

// SetSite replaces the tensor at (row, col) without validation; callers
// must preserve bond consistency.
func (l *lattice[T]) SetSite(r, c int, t T) { l.sites[r][c] = t }

// SiteIndex returns the flattened index of (row, col).
func (l *lattice[T]) SiteIndex(r, c int) int { return r*l.Cols + c }

// Coords returns the (row, col) of a flattened site index.
func (l *lattice[T]) Coords(site int) (int, int) {
	if site < 0 || site >= l.Rows*l.Cols {
		panic(fmt.Sprintf("peps: site %d out of range", site))
	}
	return site / l.Cols, site % l.Cols
}

// cloned returns a deep copy of the container.
func (l *lattice[T]) cloned() lattice[T] {
	return gridOf(mapSites(l.sites, T.Clone), l.LogScale)
}

// MaxBond returns the largest (total) bond dimension in the network.
func (l *lattice[T]) MaxBond() int {
	m := 1
	for _, row := range l.sites {
		for _, t := range row {
			for _, d := range t.Shape()[:4] {
				if d > m {
					m = d
				}
			}
		}
	}
	return m
}

// siteLogNorm rescales a site tensor to unit Frobenius norm and returns
// the log of the factor without touching LogScale, so concurrent updates
// can report their scale contributions for an ordered reduction.
func (l *lattice[T]) siteLogNorm(r, c int) float64 {
	t := l.sites[r][c]
	n := t.Norm()
	if n == 0 {
		return 0
	}
	t.ScaleInPlace(complex(1/n, 0))
	return math.Log(n)
}

// normalizeSite rescales a site tensor to unit Frobenius norm, folding
// the factor into LogScale.
func (l *lattice[T]) normalizeSite(r, c int) {
	l.LogScale += l.siteLogNorm(r, c)
}
