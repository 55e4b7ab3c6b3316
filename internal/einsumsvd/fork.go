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
	if s, ok := st.(ImplicitRand); ok {
		s.Rng = rand.New(rand.NewSource(seed))
		return s
	}
	return st
}

// Fork splits st into n strategies safe for concurrent use, one per
// lattice task. The split is deterministic: ImplicitRand draws one seed
// per task from its parent Rng, in task order, on the calling goroutine,
// so the per-task random streams depend only on the parent stream's
// position — never on scheduling — and parallel lattice algorithms stay
// bit-identical across worker counts. A nil or stateless strategy
// (Explicit) forks into shared copies. Fork returns nil for unknown
// stateful strategies, signaling the caller to fall back to a
// sequential path.
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
	}
	return nil
}
