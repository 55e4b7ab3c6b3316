package einsumsvd

import (
	"math"
	"math/rand"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

func TestForkExplicitCopies(t *testing.T) {
	sts := Fork(Explicit{Mode: SigmaBoth}, 3)
	if len(sts) != 3 {
		t.Fatalf("len = %d, want 3", len(sts))
	}
	for i, s := range sts {
		e, ok := s.(Explicit)
		if !ok || e.Mode != SigmaBoth {
			t.Fatalf("fork %d = %#v, want Explicit{SigmaBoth}", i, s)
		}
	}
}

func TestForkImplicitRandDeterministic(t *testing.T) {
	// Forking from identically seeded parents yields identical per-task
	// streams, independent of how the forks are later scheduled.
	draw := func() [][]int64 {
		parent := ImplicitRand{NIter: 2, Oversample: 3, Rng: rand.New(rand.NewSource(7))}
		sts := Fork(parent, 4)
		out := make([][]int64, len(sts))
		for i, s := range sts {
			ir := s.(ImplicitRand)
			if ir.NIter != 2 || ir.Oversample != 3 {
				t.Fatalf("fork %d lost parameters: %#v", i, ir)
			}
			if ir.Rng == parent.Rng {
				t.Fatalf("fork %d shares the parent Rng", i)
			}
			for j := 0; j < 5; j++ {
				out[i] = append(out[i], ir.Rng.Int63())
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("fork %d draw %d differs between runs: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
	// Distinct tasks get distinct streams.
	if a[0][0] == a[1][0] && a[0][1] == a[1][1] {
		t.Fatal("forks 0 and 1 produced the same stream")
	}
}

func TestForkUnknownStrategyIsNil(t *testing.T) {
	if got := Fork(unknownStrategy{}, 2); got != nil {
		t.Fatalf("Fork(unknown) = %v, want nil", got)
	}
}

type unknownStrategy struct{}

func (unknownStrategy) Name() string { return "unknown" }
func (unknownStrategy) Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, error) {
	return nil, nil, nil, nil
}

// draws takes a few values of each kind the sketches use from rng.
func draws(rng *rand.Rand) [3]uint64 {
	return [3]uint64{uint64(rng.Int63()), rng.Uint64(), math.Float64bits(rng.NormFloat64())}
}

// TestForkAndReseedPricedDeterministic: Priced forks and reseeds into the
// streams ImplicitRand forks and reseeds into, keeping its type and
// fields.
func TestForkAndReseedPricedDeterministic(t *testing.T) {
	parent := func() Priced {
		return Priced{ImplicitRand{Mode: SigmaLeft, NIter: 2, Rng: rand.New(rand.NewSource(7))}}
	}
	first := func(sts []Strategy) [][3]uint64 {
		out := make([][3]uint64, len(sts))
		for i, s := range sts {
			switch v := s.(type) {
			case Priced:
				if v.Mode != SigmaLeft || v.NIter != 2 {
					t.Fatalf("fork %d lost parameters: %#v", i, v)
				}
				out[i] = draws(v.Rng)
			case ImplicitRand:
				out[i] = draws(v.Rng)
			default:
				t.Fatalf("fork %d is a %T", i, s)
			}
		}
		return out
	}
	want := first(Fork(parent().ImplicitRand, 3))
	for run := 0; run < 2; run++ {
		got := first(Fork(parent(), 3))
		if len(got) != 3 {
			t.Fatalf("len = %d, want 3", len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d fork %d draws %v, the ImplicitRand fork %v", run, i, got[i], want[i])
			}
		}
	}
	a := Reseed(parent(), 42).(Priced)
	b := Reseed(parent(), 42).(Priced)
	if a.Mode != SigmaLeft || a.NIter != 2 {
		t.Fatalf("Reseed lost fields: %#v", a)
	}
	if x, y, z := draws(a.Rng), draws(b.Rng), draws(rand.New(rand.NewSource(42))); x != y || x != z {
		t.Fatalf("reseeded streams draw %v, %v; seed 42 draws %v", x, y, z)
	}
}
