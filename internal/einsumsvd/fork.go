package einsumsvd

import "math/rand"

// Forker is implemented by strategies that can split into independent
// per-task strategies for concurrent use. Stateless strategies return
// copies of themselves; strategies carrying mutable state (a random
// stream) derive task-private state deterministically.
type Forker interface {
	// Fork returns n strategies safe to use from n concurrent tasks.
	Fork(n int) []Strategy
}

// Reseed returns a copy of st whose random stream restarts from seed;
// stateless strategies come back unchanged. Callers that reseed at known
// boundaries (ite.Evolve reseeds per measurement step) make their random
// streams a pure function of (base seed, step), which is what lets a
// checkpoint-resumed run reproduce an uninterrupted one bit-identically:
// the resumed process never needs the rng position the dead process had.
func Reseed(st Strategy, seed int64) Strategy {
	switch s := st.(type) {
	case ImplicitRand:
		s.Rng = rand.New(rand.NewSource(seed))
		return s
	case Priced:
		s.Rng = rand.New(&lazySource{seed: seed})
		return s
	}
	return st
}

// Fork splits st into n strategies safe for concurrent use, one per
// lattice task. The split is deterministic: ImplicitRand (and the one
// inside Priced) draws one seed per task from its parent Rng, in task
// order, on the calling goroutine, so the per-task random streams depend
// only on the parent stream's position — never on scheduling — and
// parallel lattice algorithms stay bit-identical across worker counts.
// A nil or stateless strategy (Explicit) forks into shared copies. Fork
// returns nil for unknown stateful strategies, signaling the caller to
// fall back to a sequential path.
func Fork(st Strategy, n int) []Strategy {
	if n <= 0 {
		return nil
	}
	out := make([]Strategy, n)
	switch s := st.(type) {
	case nil:
		return out
	case Forker:
		return s.Fork(n)
	case Explicit:
		for i := range out {
			out[i] = s
		}
		return out
	case ImplicitRand:
		for i := range out {
			c := s
			if s.Rng != nil {
				c.Rng = rand.New(rand.NewSource(s.Rng.Int63()))
			}
			out[i] = c
		}
		return out
	case Priced:
		for i := range out {
			c := s
			if s.Rng != nil {
				c.Rng = rand.New(&lazySource{seed: s.Rng.Int63()})
			}
			out[i] = c
		}
		return out
	}
	return nil
}

// lazySource is rand.NewSource(seed), seeded on its first draw. Priced
// reseeds and forks through it: a measurement forks one strategy per
// Hamiltonian term, and where every split is formed none of them draws,
// so none pays for a source (a 4.9 KB allocation and ~10 us of seeding
// each). A strategy that does sketch draws the stream rand.NewSource(seed)
// gives, so its sketch stays bit-identical to ImplicitRand's.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) get() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.get().Int63() }
func (l *lazySource) Uint64() uint64  { return l.get().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }
