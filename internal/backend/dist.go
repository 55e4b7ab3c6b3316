package backend

import (
	"math"

	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// Dist executes the heavy kernels on a simulated distributed-memory grid.
// Every einsum's GEMMs run through the grid's SPMD block kernel; every
// materializing transpose is metered as an all-to-all redistribution,
// which is exactly the Cyclops reshape bottleneck paper section V-C
// describes. The orthogonalization/factorization variants mirror the
// algorithm names of paper Figure 7:
//
//   - UseGram = false: the "ctf-qr-svd" style — factorizations pay the
//     distributed reshape and gather, compute on one rank, and scatter.
//   - UseGram = true: the "ctf-local-gram-qr(-svd)" style — paper
//     Algorithm 5: a redistribution-free distributed Gram GEMM plus tiny
//     local eigensolves.
type Dist struct {
	Grid    *dist.Grid
	UseGram bool
	// LocalSVD computes explicit truncated SVDs sequentially on one rank
	// with only a broadcast of the small factors, instead of paying the
	// distributed reshape — valid when the matricized tensors fit in
	// local memory, as in the R-G-R networks of the QR-SVD update. This
	// is the paper's "local-gram-qr-svd" variant (Figure 7).
	LocalSVD bool
}

// NewDist returns a distributed engine on the given grid.
func NewDist(g *dist.Grid, useGram bool) *Dist {
	return &Dist{Grid: g, UseGram: useGram}
}

func (d *Dist) Name() string {
	switch {
	case d.UseGram && d.LocalSVD:
		return "dist-local-gram-qr-svd"
	case d.UseGram:
		return "dist-local-gram-qr"
	default:
		return "dist-qr-svd"
	}
}

const bytesPerElem = 16

// svdEffRanks is the effective parallelism of the modeled
// ScaLAPACK-style distributed SVD, which scales far worse than GEMM.
const svdEffRanks = 16

func (d *Dist) hooks(bool) einsum.Hooks {
	return einsum.Hooks{
		OnMove: func(elements int) {
			d.Grid.AllToAll(int64(elements) * bytesPerElem)
		},
		GEMM: d.Grid.BatchMatMul,
	}
}

func (d *Dist) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(nil, spec, ops, d.hooks(false))
}

// QRSplit factors a tensor with the first leftAxes axes as rows.
func (d *Dist) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	shape := t.Shape()
	rows, cols := 1, 1
	for i, dim := range shape {
		if i < leftAxes {
			rows *= dim
		} else {
			cols *= dim
		}
	}
	var qm, rm *tensor.Dense
	direct := !d.UseGram
	if d.UseGram {
		// Paper Algorithm 5: distributed Gram GEMM (allreduce of a small
		// cols-by-cols matrix only), local eigendecomposition, broadcast
		// of the small P factor, distributed Q = A P.
		a := t.Reshape(rows, cols)
		g := d.Grid.GramMatrix(a)
		rmg, p, ok := gramFactors(g)
		d.chargeGramFactors(cols)
		if ok {
			rm = rmg
			d.Grid.Bcast(int64(p.Size()) * bytesPerElem)
			qm = d.Grid.MatMul(a, p)
		} else {
			// κ² of the matricized tensor is past health.Kappa2Max: the
			// squared conditioning of the Gram method cannot resolve the
			// small directions, so degrade to the direct Householder-QR
			// path (paying its redistribution). The Gram attempt's cost
			// stays metered — the model reflects attempt-then-degrade.
			health.CountGramFallback()
			direct = true
		}
	}
	if direct {
		// Direct path: distributed reshape (alltoall), gather the
		// matricized tensor, factor locally, scatter back.
		d.Grid.AllToAll(int64(t.Size()) * bytesPerElem)
		d.Grid.Gather(int64(t.Size()) * bytesPerElem)
		qm, rm = linalg.QR(t.Reshape(rows, cols))
		d.Grid.ChargeFlops(linalg.QRFlops(rows, cols), svdEffRanks)
		d.Grid.Gather(int64(qm.Size()+rm.Size()) * bytesPerElem) // scatter results
	}
	k := qm.Dim(1)
	qShape := append(append([]int{}, shape[:leftAxes]...), k)
	rShape := append([]int{k}, shape[leftAxes:]...)
	return qm.Reshape(qShape...), rm.Reshape(rShape...)
}

// gramFactors computes, from the Gram matrix G = A*A, the Algorithm 5
// factors R = sqrt(L) X* and P = X diag(1/sqrt(L)); the caller forms
// Q = A P with a distributed GEMM. ok is false when the Gram spectrum
// reveals κ² beyond health.Kappa2Max (the eigenvalues of G are the
// squared singular values of A): the factors are then unusable and the
// caller must degrade to direct QR.
func gramFactors(g *tensor.Dense) (r, p *tensor.Dense, ok bool) {
	w, x := linalg.EigH(g)
	n := g.Dim(0)
	if n > 0 && health.GramIllConditioned(w[n-1], w[0]) {
		return nil, nil, false
	}
	wmax := 0.0
	for _, v := range w {
		if v > wmax {
			wmax = v
		}
	}
	if wmax == 0 {
		wmax = 1
	}
	cutoff := 1e-24 * wmax
	sq := tensor.New(n, n)
	isq := tensor.New(n, n)
	for i := 0; i < n; i++ {
		wi := w[i]
		if wi < 0 {
			wi = 0
		}
		s := math.Sqrt(wi)
		sq.Set(complex(s, 0), i, i)
		if wi >= cutoff {
			// Directions below the cutoff carry no range of A: drop them
			// (zero column in Q) instead of amplifying rounding noise by
			// 1/sqrt(w).
			isq.Set(complex(1/s, 0), i, i)
		}
	}
	xh := x.Conj().Transpose(1, 0)
	r = tensor.MatMul(sq, xh)
	p = tensor.MatMul(x, isq)
	return r, p, true
}

// chargeGramFactors accounts the single-rank work of gramFactors on the
// grid analytically — the n-by-n eigendecomposition plus the two n³
// factor GEMMs — instead of measuring a global flop delta, which would
// attribute concurrent tasks' flops to this grid (and each other's) when
// lattice task groups drive the same engine from several workers.
func (d *Dist) chargeGramFactors(n int) {
	n64 := int64(n)
	d.Grid.ChargeFlops(linalg.EigFlops(n)+2*n64*n64*n64, 1)
}

// TruncSVD models the ScaLAPACK-via-Cyclops explicit SVD: a distributed
// reshape to the factorization layout plus a factorization whose
// scalability saturates at svdEffRanks.
func (d *Dist) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	if d.LocalSVD {
		// Small-matrix path: compute on one rank and broadcast the
		// factors; no distributed reshape.
		u, s, v := linalg.TruncatedSVD(m, rank)
		d.Grid.ChargeFlops(linalg.SVDFlops(m.Dim(0), m.Dim(1)), 1)
		d.Grid.Bcast(int64(u.Size()+v.Size()) * bytesPerElem)
		return u, s, v
	}
	d.Grid.AllToAll(int64(m.Size()) * bytesPerElem)
	u, s, v := linalg.TruncatedSVD(m, rank)
	d.Grid.ChargeFlops(linalg.SVDFlops(m.Dim(0), m.Dim(1)), svdEffRanks)
	d.Grid.AllToAll(int64(u.Size()+v.Size()) * bytesPerElem)
	return u, s, v
}

// Orth orthonormalizes a tall block vector for randomized SVD iterations.
func (d *Dist) Orth(x *tensor.Dense) *tensor.Dense {
	if d.UseGram {
		g := d.Grid.GramMatrix(x)
		_, p, ok := gramFactors(g)
		d.chargeGramFactors(x.Dim(1))
		if ok {
			d.Grid.Bcast(int64(p.Size()) * bytesPerElem)
			return d.Grid.MatMul(x, p)
		}
		// Ill-conditioned block vector: degrade to the direct QR path
		// below (see QRSplit for the rationale).
		health.CountGramFallback()
	}
	d.Grid.AllToAll(int64(x.Size()) * bytesPerElem)
	d.Grid.Gather(int64(x.Size()) * bytesPerElem)
	q := linalg.OrthQR(x)
	d.Grid.ChargeFlops(linalg.QRFlops(x.Dim(0), x.Dim(1)), svdEffRanks)
	d.Grid.Gather(int64(q.Size()) * bytesPerElem)
	return q
}
