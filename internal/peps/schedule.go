package peps

import "gokoala/internal/quantum"

// gateTouches returns the lattice sites a gate updates, or nil when the
// gate needs SWAP routing (non-adjacent two-site gates sweep a path of
// intermediate sites, so they are scheduled as exclusive barriers).
func (p *PEPS) gateTouches(g quantum.TrotterGate) []int {
	switch len(g.Sites) {
	case 1:
		return g.Sites
	case 2:
		r1, c1 := p.Coords(g.Sites[0])
		r2, c2 := p.Coords(g.Sites[1])
		if adjacent(r1, c1, r2, c2) {
			return g.Sites
		}
		return nil
	default:
		panic("peps: unsupported gate arity")
	}
}

// gateWaves partitions a gate sequence into waves of gates on pairwise
// disjoint sites — the checkerboard schedule of a Trotter sweep emerges
// automatically (horizontal even bonds, horizontal odd, vertical even,
// vertical odd). Each gate lands in the earliest wave after every
// earlier gate it conflicts with (list scheduling), so waves preserve
// program order between overlapping gates and gates within one wave
// commute by construction. Routed gates occupy a wave of their own.
// The schedule depends only on the gate list, never on worker counts.
func (p *PEPS) gateWaves(gates []quantum.TrotterGate) [][]int {
	waveOf := make([]int, len(gates))
	siteLast := make(map[int]int) // site -> latest wave touching it
	barrier := -1                 // wave of the last routed gate
	maxWave := -1
	for i, g := range gates {
		ts := p.gateTouches(g)
		var w int
		if ts == nil {
			w = maxWave + 1
			barrier = w
		} else {
			w = barrier + 1
			for _, s := range ts {
				if last, ok := siteLast[s]; ok && last+1 > w {
					w = last + 1
				}
			}
			for _, s := range ts {
				siteLast[s] = w
			}
		}
		waveOf[i] = w
		if w > maxWave {
			maxWave = w
		}
	}
	waves := make([][]int, maxWave+1)
	for i, w := range waveOf {
		waves[w] = append(waves[w], i)
	}
	return waves
}
