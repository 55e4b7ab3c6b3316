package linalg

import "gokoala/internal/pool"

// workspace is the scratch of one factorization: the working copy and
// reflector slab of a Householder QR, the column and rotation slabs of a
// Jacobi SVD, and their norm, pivot and schedule vectors. QR and SVD are
// called thousands of times per lattice operation on matrices of a few
// hundred elements, where allocating these afresh cost more than the
// arithmetic on them; a factorization checks a workspace out of a
// bounded free list (pool.FreeList, which a garbage collection does not
// empty) and carves what it needs from it. Only what escapes to the
// caller — the factors — is allocated per call.
type workspace struct {
	c arena[complex128]
	f arena[float64]
	n arena[int]
}

var workspaces pool.FreeList[*workspace]

// maxWorkspaceElems is the most elements one arena of a workspace keeps
// (1 MB of complex128). The free list lives as long as the process, so
// this times its length bounds what linalg retains; a region that would
// take an arena past it is allocated on its own and left to the
// collector — a factorization that large amortizes the allocation.
const maxWorkspaceElems = 1 << 16

func getWorkspace() *workspace {
	if ws, ok := workspaces.Get(); ok {
		return ws
	}
	return new(workspace)
}

// release parks the workspace for the next factorization. Everything
// taken from it is dead from here on.
func (ws *workspace) release() {
	ws.c.used, ws.f.used, ws.n.used = 0, 0, 0
	workspaces.Put(ws)
}

// arena hands out consecutive regions of one backing array. Regions are
// NOT zeroed: they hold whatever the previous factorization left.
type arena[T any] struct {
	buf  []T
	used int
}

// take returns a region of n elements. When the backing array is too
// short a longer one replaces it, up to maxWorkspaceElems; regions
// handed out earlier stay valid in the old array, and the next
// factorization finds room for all of them in the new one.
func (a *arena[T]) take(n int) []T {
	if len(a.buf)-a.used < n {
		need := a.used + n
		if need > maxWorkspaceElems {
			return make([]T, n)
		}
		a.buf = make([]T, min(2*need, maxWorkspaceElems))
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}
