package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// Term is one local term of an observable: a coefficient times an operator
// acting on one or two named sites. Sites are flattened lattice positions
// (row-major, site = row*ncols + col, matching the paper's i_{pn+q}).
// For two-site terms Op is a 4x4 matrix over (site1, site2) with site1 the
// more significant qubit.
type Term struct {
	Coef  complex128
	Sites []int
	Op    *tensor.Dense
}

// Observable is a Hermitian operator expressed as a sum of local terms,
// H = sum_i coef_i * op_i, the form assumed by both the expectation-value
// caching strategy (paper section IV-B) and Trotterized evolution.
type Observable struct {
	Terms []Term
}

// NewObservable returns an empty observable.
func NewObservable() *Observable { return &Observable{} }

// AddTerm appends coef * op acting on the given sites (one or two).
func (o *Observable) AddTerm(coef complex128, op *tensor.Dense, sites ...int) *Observable {
	switch len(sites) {
	case 1:
		if op.Rank() != 2 || op.Dim(0) != 2 || op.Dim(1) != 2 {
			panic(fmt.Sprintf("quantum: one-site term must be 2x2, got %v", op.Shape()))
		}
	case 2:
		if sites[0] == sites[1] {
			panic("quantum: two-site term on identical sites")
		}
		if op.Size() != 16 {
			panic(fmt.Sprintf("quantum: two-site term must be 4x4, got %v", op.Shape()))
		}
		op = op.Reshape(4, 4)
	default:
		panic(fmt.Sprintf("quantum: terms must act on 1 or 2 sites, got %d", len(sites)))
	}
	o.Terms = append(o.Terms, Term{Coef: coef, Sites: append([]int{}, sites...), Op: op})
	return o
}

// Add returns a new observable with the terms of both inputs.
func (o *Observable) Add(other *Observable) *Observable {
	out := &Observable{Terms: append(append([]Term{}, o.Terms...), other.Terms...)}
	return out
}

// Scale returns a new observable with every coefficient multiplied by c.
func (o *Observable) Scale(c complex128) *Observable {
	out := &Observable{Terms: append([]Term{}, o.Terms...)}
	for i := range out.Terms {
		out.Terms[i].Coef *= c
	}
	return out
}

// MaxSite returns the largest site index any term touches, or -1.
func (o *Observable) MaxSite() int {
	m := -1
	for _, t := range o.Terms {
		for _, s := range t.Sites {
			if s > m {
				m = s
			}
		}
	}
	return m
}

// OperatorSchmidt decomposes a two-site operator (4x4 over (site1,
// site2), or its [2,2,2,2] form) into a sum of products
// op = sum_k as[k] (x) bs[k], with as[k] acting on site1 and bs[k] on
// site2: the SVD of the matrix op[(i,p),(j,q)] with the singular values
// split evenly between the factors. K = len(as) is the operator-Schmidt
// rank, at most 4: 1 for a Pauli product, 3 for the U(1) pair operator
// jxy (XX + YY) + jz ZZ, 4 for SWAP, 0 for the zero operator. A product
// acts on each site's physical leg alone, so applying one to a tensor
// network state touches no bond.
func OperatorSchmidt(op *tensor.Dense) (as, bs []*tensor.Dense) {
	if op.Size() != 16 {
		panic(fmt.Sprintf("quantum: two-site operator must be 4x4, got %v", op.Shape()))
	}
	// op[i,j,p,q] -> M[(i,p),(j,q)]
	u, s, v := linalg.SVD(Gate4(op).Transpose(0, 2, 1, 3).Reshape(4, 4))
	for k, sk := range s {
		// Schmidt values at rounding level of the largest carry nothing:
		// a rank-one Pauli product must come back as one product.
		if sk <= 1e-15*s[0] {
			break
		}
		a, b := tensor.New(2, 2), tensor.New(2, 2)
		ad, bd := a.Data(), b.Data()
		w := complex(math.Sqrt(sk), 0)
		for i := 0; i < 4; i++ {
			ad[i] = w * u.At(i, k)
			bd[i] = w * cmplx.Conj(v.At(i, k))
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

// Convenience constructors mirroring the paper's example code
// (Observable.ZZ(3,4) + 0.2 * Observable.X(1)).

// ObservableX returns X acting on one site.
func ObservableX(site int) *Observable { return NewObservable().AddTerm(1, X(), site) }

// ObservableZ returns Z acting on one site.
func ObservableZ(site int) *Observable { return NewObservable().AddTerm(1, Z(), site) }

// ObservableZZ returns Z(x)Z acting on two sites.
func ObservableZZ(s1, s2 int) *Observable {
	return NewObservable().AddTerm(1, tensor.Kron(Z(), Z()), s1, s2)
}

// TrotterGate is one factor of the Trotter-Suzuki product
// prod_j exp(scale * coef_j * op_j).
type TrotterGate struct {
	Sites []int
	// Gate is 2x2 for one-site factors and 4x4 for two-site factors.
	Gate *tensor.Dense
}

// TrotterGates decomposes exp(scale * H) into local factors via the
// first-order Trotter-Suzuki splitting (paper section II-D1). With
// scale = -tau this yields one sweep of imaginary time evolution.
// Two-site terms are emitted before one-site terms, grouped so gates on
// disjoint sites appear consecutively (the application order of a
// first-order splitting affects only the O(tau^2) error).
func (o *Observable) TrotterGates(scale complex128) []TrotterGate {
	gates := make([]TrotterGate, 0, len(o.Terms))
	terms := append([]Term{}, o.Terms...)
	sort.SliceStable(terms, func(i, j int) bool { return len(terms[i].Sites) > len(terms[j].Sites) })
	for _, t := range terms {
		// exp(scale * coef * op) with Hermitian op: fold coef into the
		// exponent scale so the eigendecomposition stays on the Hermitian
		// operator itself.
		gates = append(gates, TrotterGate{
			Sites: t.Sites,
			Gate:  linalg.ExpmHermitian(t.Op, scale*t.Coef),
		})
	}
	return gates
}

// TrotterGatesSecondOrder decomposes exp(scale * H) with the symmetric
// (Strang) splitting: half-steps of every factor in order, then the same
// half-steps in reverse. The per-sweep error is O(scale^3) instead of
// the first-order O(scale^2), at twice the gate count.
func (o *Observable) TrotterGatesSecondOrder(scale complex128) []TrotterGate {
	half := o.TrotterGates(scale / 2)
	out := make([]TrotterGate, 0, 2*len(half))
	out = append(out, half...)
	for i := len(half) - 1; i >= 0; i-- {
		out = append(out, half[i])
	}
	return out
}
