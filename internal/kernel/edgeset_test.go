package kernel

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEdgeSetMatchesMap: across growth and Clear, the set holds exactly
// the distinct edges added since the last Clear, in first-hit order, like
// a map plus an order list would, and Add reports the edges the map had
// not seen.
func TestEdgeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s EdgeSet
	for round := 0; round < 30; round++ {
		seen := map[uint64]bool{}
		var want []uint64
		for n := rng.Intn(300); n > 0; n-- {
			// Structured like real edges, with 0 and repeats included.
			e := uint64(rng.Intn(40))<<32 | uint64(rng.Intn(40))
			if added := s.Add(e); added == seen[e] {
				t.Fatalf("round %d: Add(%#x) = %v, but the edge was seen before: %v", round, e, added, seen[e])
			}
			if !seen[e] {
				seen[e] = true
				want = append(want, e)
			}
		}
		if s.Len() != len(want) || !slices.Equal(s.Edges(), want) {
			t.Fatalf("round %d: edges %v, want %v", round, s.Edges(), want)
		}
		s.Clear()
		if s.Len() != 0 {
			t.Fatalf("round %d: %d edges after Clear", round, s.Len())
		}
	}
}

// TestEdgeSetClearKeepsStorage: a cleared set refilled with no more edges
// than before allocates nothing.
func TestEdgeSetClearKeepsStorage(t *testing.T) {
	var s EdgeSet
	fill := func() {
		for e := uint64(0); e < 500; e++ {
			s.Add(e<<32 | e%7)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(20, func() {
		s.Clear()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("refilling a cleared set: %v allocs, want 0", allocs)
	}
}
