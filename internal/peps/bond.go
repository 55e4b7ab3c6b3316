package peps

import (
	"fmt"
	"strconv"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
)

// kernel is the seam between the lattice algorithms and a tensor kind:
// everything the two-site update asks of the backend, for dense tensors
// (denseKernel) or block-sparse ones (symKernel). Kind-specific behaviour
// lives behind it and nowhere else in the update.
type kernel[T any] interface {
	einsum(spec string, ops ...T) T
	qrSplit(t T, leftAxes int) (q, r T)
	// factor evaluates a split spec, panicking on a malformed one (the
	// specs below are constants).
	// It also returns the relative weight the rank cap discarded, or
	// einsumsvd.TruncUnknown when the factorization does not report it.
	factor(spec string, rank int, ops ...T) (a, b T, s []float64, truncErr float64)
	// gate4 returns a two-site gate as a tensor [i,j,p,q] over (site1,
	// site2); swap is the SWAP gate in that form, for routing.
	gate4(g T) T
	swap() T
	// scope opens a span under the one the kernel's engine carries and
	// returns the kernel bound to it (see backend.Scope); nil, nil while
	// untraced.
	scope(name string) (kernel[T], *obs.Span)
}

// bondDir is a row of the direction table: what distinguishes the update
// of a horizontal bond from that of a vertical one. Site axes are
// [up, left, down, right, phys].
type bondDir struct {
	name         string // telemetry label
	dr, dc       int    // offset of the bond's second site from its first
	axisA, axisB int    // the shared bond's axis on the first and second site
	// permA/permB bring each site to (environment bonds..., shared bond,
	// phys) for the QR step; nil means it is stored that way already.
	permA, permB []int
	// direct is the UpdateDirect spec A,B,G -> A'|B'; backA/backB multiply
	// the Q factors back onto the refactorized R-G-R network (Algorithm 1
	// steps (4)->(5)) in the sites' stored axis order.
	direct, backA, backB string
}

var (
	horizontal = &bondDir{name: "h", dc: 1, axisA: 3, axisB: 1,
		permB:  []int{0, 2, 3, 1, 4},
		direct: "abcxp,exfgq,ijpq->abcni|enfgj", backA: "abck,kin->abcni", backB: "efgl,nlj->enfgj"}
	vertical = &bondDir{name: "v", dr: 1, axisA: 2, axisB: 0,
		permA: []int{0, 1, 3, 2, 4}, permB: []int{1, 2, 3, 0, 4},
		direct: "abxdp,xfghq,ijpq->abndi|nfghj", backA: "abdk,kin->abndi", backB: "fghl,nlj->nfghj"}
)

// updater applies gates to one lattice through one kernel with one set of
// options. It is built per call (per gate under ApplyCircuit's waves, each
// with its own forked strategy inside the kernel) and shares only the
// lattice, whose sites concurrent gates touch disjointly.
type updater[T siteTensor[T]] struct {
	lat       *lattice[T]
	k         kernel[T]
	label     string // the peps.update span's method attribute
	rank      int
	direct    bool
	normalize bool
	// step updates one bond and returns the LogScale delta it produced.
	// It is plainStep unless the caller wraps bond in hooks of its own
	// (the weighted simple update).
	step func(g4 T, d *bondDir, r, c int) float64
}

func newUpdater[T siteTensor[T]](lat *lattice[T], k kernel[T], label string, opts UpdateOptions) *updater[T] {
	u := &updater[T]{lat: lat, k: k, label: label, rank: opts.rank(),
		direct: opts.Method == UpdateDirect, normalize: opts.Normalize}
	u.step = u.plainStep
	return u
}

// bond is the two-site update, written once: it applies g4 to the sites
// joined by the d-bond whose first (upper or left) site is (r,c), the
// gate's first qubit on that site, and returns the kept singular values
// with the truncation error of this bond (see kernel.factor).
func (u *updater[T]) bond(g4 T, d *bondDir, r, c int) (s []float64, truncErr float64) {
	sites := u.lat.sites
	a, b := sites[r][c], sites[r+d.dr][c+d.dc]
	var na, nb T
	if u.direct {
		na, nb, s, truncErr = u.k.factor(d.direct, u.rank, a, b, g4)
	} else {
		// Paper Algorithm 1, steps (1)->(2): QR with environment bonds as
		// rows and (shared bond, phys) as columns.
		if d.permA != nil {
			a = a.Transpose(d.permA...)
		}
		qa, ra := u.k.qrSplit(a, 3) // [env..., k], [k,x,p]
		qb, rb := u.k.qrSplit(b.Transpose(d.permB...), 3)
		// Step (2)->(4): einsumsvd on the small network.
		var rka, rkb T
		rka, rkb, s, truncErr = u.k.factor("kxp,lxq,ijpq->kin|nlj", u.rank, ra, rb, g4)
		// Step (4)->(5): multiply the Q factors back.
		na = u.k.einsum(d.backA, qa, rka)
		nb = u.k.einsum(d.backB, qb, rkb)
	}
	recordBondUpdate(d.name, r, c, len(s), truncErr)
	sites[r][c], sites[r+d.dr][c+d.dc] = na, nb
	return s, truncErr
}

// plainStep is the per-bond truncation: the update, then the optional
// rescaling of both sites to unit norm.
func (u *updater[T]) plainStep(g4 T, d *bondDir, r, c int) float64 {
	u.bond(g4, d, r, c)
	if !u.normalize {
		return 0
	}
	return u.lat.siteLogNorm(r, c) + u.lat.siteLogNorm(r+d.dr, c+d.dc)
}

// recordBondUpdate publishes one two-site update: the new bond dimension
// as a per-bond labeled series plus a lattice-wide histogram, and — when
// the factorization reported it — the discarded spectral weight of this
// bond's truncation. Bonds are labeled by direction and the (row, col)
// of the gate's first site. One atomic load while collection is off.
func recordBondUpdate(dir string, r, c, dim int, truncErr float64) {
	if !obs.Enabled() {
		return
	}
	labels := []obs.Label{
		{Key: "dir", Value: dir},
		{Key: "row", Value: strconv.Itoa(r)},
		{Key: "col", Value: strconv.Itoa(c)},
	}
	obs.Observe("peps.bond_dim", float64(dim), labels...)
	obs.ObserveHist("peps.bond_dim_hist", obs.Pow2Bounds, float64(dim))
	if truncErr != einsumsvd.TruncUnknown {
		obs.Observe("peps.bond_trunc_error", truncErr, labels...)
	}
}

// bondStep is one adjacent-pair application of an expanded two-site gate.
type bondStep struct {
	dir  *bondDir
	r, c int  // the bond's first (upper or left) site
	flip bool // the operator's first qubit sits on the bond's second site
	swap bool // a routing SWAP rather than the gate itself
}

func adjacent(r1, c1, r2, c2 int) bool { return abs(r1-r2)+abs(c1-c2) == 1 }

// bondSteps expands a gate on sites (r1,c1), (r2,c2) into ordered bond
// steps: the bond itself for neighbours (paper equation 4), else the SWAP
// chain of paper section II-C1 around it (see routedApplications).
func bondSteps(r1, c1, r2, c2 int) []bondStep {
	apps := []adjApp{{r1, c1, r2, c2, true}}
	if !adjacent(r1, c1, r2, c2) {
		apps = routedApplications(r1, c1, r2, c2)
	}
	steps := make([]bondStep, len(apps))
	for i, a := range apps {
		st := &steps[i]
		st.swap = !a.gate
		switch {
		case a.ra == a.rb && a.cb == a.ca+1:
			st.dir, st.r, st.c = horizontal, a.ra, a.ca
		case a.ra == a.rb && a.cb == a.ca-1:
			st.dir, st.r, st.c, st.flip = horizontal, a.ra, a.cb, true
		case a.ca == a.cb && a.rb == a.ra+1:
			st.dir, st.r, st.c = vertical, a.ra, a.ca
		case a.ca == a.cb && a.rb == a.ra-1:
			st.dir, st.r, st.c, st.flip = vertical, a.rb, a.ca, true
		default:
			panic(fmt.Sprintf("peps: sites (%d,%d) and (%d,%d) not adjacent", a.ra, a.ca, a.rb, a.cb))
		}
	}
	return steps
}

// adjApp is one adjacent-pair application, the operator's first qubit on
// (ra,ca): the gate itself or a routing SWAP.
type adjApp struct {
	ra, ca, rb, cb int
	gate           bool
}

// routedApplications returns the sequence of adjacent-pair applications
// implementing a two-site gate on distant sites: SWAPs moving the second
// qubit next to the first, the gate, and the SWAPs undone.
func routedApplications(r1, c1, r2, c2 int) []adjApp {
	type pos struct{ r, c int }
	cur := pos{r2, c2}
	var path []pos
	for cur.c != c1 {
		step := 1
		if cur.c > c1 {
			step = -1
		}
		next := pos{cur.r, cur.c + step}
		if next.r == r1 && next.c == c1 {
			break
		}
		path = append(path, next)
		cur = next
	}
	for cur.r != r1 {
		step := 1
		if cur.r > r1 {
			step = -1
		}
		next := pos{cur.r + step, cur.c}
		if next.r == r1 && next.c == c1 {
			break
		}
		path = append(path, next)
		cur = next
	}
	var out []adjApp
	prev := pos{r2, c2}
	for _, nx := range path {
		out = append(out, adjApp{prev.r, prev.c, nx.r, nx.c, false})
		prev = nx
	}
	out = append(out, adjApp{r1, c1, prev.r, prev.c, true})
	for i := len(path) - 1; i >= 0; i-- {
		var back pos
		if i == 0 {
			back = pos{r2, c2}
		} else {
			back = path[i-1]
		}
		out = append(out, adjApp{path[i].r, path[i].c, back.r, back.c, false})
	}
	return out
}

// twoSite applies a two-site gate over (site1, site2) and returns the
// LogScale delta instead of folding it in. Concurrent gate applications
// on disjoint sites go through the delta forms so the coordinator can sum
// the deltas in gate order (float addition is not associative; a fixed
// order keeps results bit-identical across worker counts).
func (u *updater[T]) twoSite(g T, site1, site2 int) float64 {
	r1, c1 := u.lat.Coords(site1)
	r2, c2 := u.lat.Coords(site2)
	if site1 == site2 {
		panic("peps: two-site gate on identical sites")
	}
	if k, sp := u.k.scope("peps.update"); sp != nil {
		// The gate's kernel calls run under its span; the updater gets
		// its own kernel back afterwards.
		sp.SetStr("method", u.label)
		outer := u.k
		u.k = k
		defer func() {
			u.k = outer
			sp.End()
		}()
	}
	g4 := u.k.gate4(g)
	steps := bondSteps(r1, c1, r2, c2)
	var swap T
	if len(steps) > 1 {
		swap = u.k.swap()
	}
	var delta float64
	for _, st := range steps {
		op := g4
		if st.swap {
			op = swap
		}
		if st.flip {
			op = op.Transpose(1, 0, 3, 2) // g[i1,i2,j1,j2] with its qubits exchanged
		}
		delta += u.step(op, st.dir, st.r, st.c)
	}
	return delta
}

// applyOneSite applies a one-site operator (a d'-by-d matrix) in place
// (paper equation 3), contracting with the given einsum.
func applyOneSite[T siteTensor[T]](lat *lattice[T], einsum func(spec string, ops ...T) T, g T, site int) {
	r, c := lat.Coords(site)
	if g.Rank() != 2 {
		panic("peps: one-site operator must be a matrix")
	}
	lat.sites[r][c] = einsum("ij,uldrj->uldri", g, lat.sites[r][c])
}

// gate dispatches a one- or two-site gate and returns its LogScale delta.
func (u *updater[T]) gate(sites []int, g T) float64 {
	switch len(sites) {
	case 1:
		applyOneSite(u.lat, u.k.einsum, g, sites[0])
		if u.normalize {
			return u.lat.siteLogNorm(u.lat.Coords(sites[0]))
		}
		return 0
	case 2:
		return u.twoSite(g, sites[0], sites[1])
	default:
		panic("peps: unsupported gate arity")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
