package lazyrand

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// draws covers two full passes over the state, so every word is read both
// in its seeded form and after the generator has overwritten it.
const draws = 3 * length

func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, mod, -mod, mod - 1, mod + 1, 2 * mod,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, zero,
	}
	r := rand.New(rand.NewSource(20241104))
	for i := 0; i < 320; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand: raw Uint64 and Int63 streams equal
// rand.NewSource's for edge and random seeds.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for k := 0; k < draws; k++ {
			var w, g uint64
			if k%2 == 0 {
				w, g = want.Uint64(), got.Uint64()
			} else {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			}
			if w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// TestReseed: Seed on a used source restarts the stream exactly like a
// fresh rand.NewSource.
func TestReseed(t *testing.T) {
	s := New(7)
	for k := 0; k < draws; k++ {
		s.Uint64()
	}
	for _, seed := range []int64{7, 0, math.MaxInt64} {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 2*length; k++ {
			if w, g := want.Uint64(), s.Uint64(); w != g {
				t.Fatalf("reseed %d draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// TestBoundaryDrawCounts: the stream equals rand.NewSource's when it stops
// right around the draw that builds the state (lag), the end of the first
// pass over it (length) and three passes, and a draw after each stop
// still matches.
func TestBoundaryDrawCounts(t *testing.T) {
	for _, n := range []int{lag - 1, lag, lag + 1, length - 1, length, length + 1, 3 * length} {
		for _, seed := range testSeeds() {
			want := rand.NewSource(seed).(rand.Source64)
			got := New(seed)
			for k := 0; k <= n; k++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("stop %d seed %d draw %d: got %#x, want %#x", n, seed, k, g, w)
				}
			}
		}
	}
}

// TestSeedReusesState: Seed after the state was built keeps the state
// array and restarts the stream; Seed before it was built leaves none.
func TestSeedReusesState(t *testing.T) {
	s := New(3)
	for k := 0; k < lag; k++ {
		s.Uint64()
	}
	if s.vec != nil {
		t.Fatalf("state built after %d draws, want none before draw %d", lag, lag+1)
	}
	s.Seed(4) // before the state was built
	if s.vec != nil {
		t.Fatal("Seed built a state")
	}
	for k := 0; k < length; k++ {
		s.Uint64()
	}
	vec := s.vec
	if vec == nil {
		t.Fatalf("no state after %d draws", length)
	}
	for _, seed := range []int64{5, 6} {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 2*length; k++ {
			if w, g := want.Uint64(), s.Uint64(); w != g {
				t.Fatalf("reseed %d draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
		if s.vec != vec {
			t.Fatalf("reseed %d allocated a new state", seed)
		}
	}
}

// TestStepAllocs: a step's worth of draws allocates only the Source.
func TestStepAllocs(t *testing.T) {
	var sum int
	allocs := testing.AllocsPerRun(100, func() {
		r := rand.New(New(42))
		for k := 0; k < 200; k++ {
			sum += r.Intn(1 + k)
		}
	})
	if allocs != 1 {
		t.Fatalf("New + 200 Intn draws: %v allocs, want 1", allocs)
	}
}

// TestRandMethodsMatch: the *rand.Rand methods campaigns use draw the same
// values through either source.
func TestRandMethodsMatch(t *testing.T) {
	for _, seed := range testSeeds()[:40] {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for k := 0; k < 2*length; k++ {
			n := 1 + k%97
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d Intn(%d) #%d: got %d, want %d", seed, n, k, g, w)
			}
			big := int64(1)<<40 + int64(k)
			if w, g := want.Int63n(big), got.Int63n(big); w != g {
				t.Fatalf("seed %d Int63n #%d: got %d, want %d", seed, k, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d Float64 #%d: got %v, want %v", seed, k, g, w)
			}
		}
		if w, g := want.Perm(50), got.Perm(50); !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d Perm: got %v, want %v", seed, g, w)
		}
		ws, gs := make([]int, 64), make([]int, 64)
		for i := range ws {
			ws[i], gs[i] = i, i
		}
		want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("seed %d Shuffle: got %v, want %v", seed, gs, ws)
		}
	}
}

var sink int

// BenchmarkStepSource measures one campaign step's worth of randomness:
// seed a source, then draw 40 Intn values.
func BenchmarkStepSource(b *testing.B) {
	step := func(r *rand.Rand) {
		for k := 0; k < 40; k++ {
			sink += r.Intn(1 + k)
		}
	}
	b.Run("lazyrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step(rand.New(New(int64(i))))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step(rand.New(rand.NewSource(int64(i))))
		}
	})
}
