package kernel

import "math/bits"

// EdgeSet is a set of coverage edges that keeps its storage across Clear,
// so a recycled kernel records a run's coverage without allocating: an
// open-addressing hash table for membership plus the edges in first-hit
// order. The zero value is an empty set.
type EdgeSet struct {
	// slots holds edge+1 per occupied slot and 0 for an empty one (no
	// edge is all ones). len(slots) is a power of two at least twice the
	// edge count, so linear probing always finds an empty slot.
	slots []uint64
	shift uint // 64 - log2(len(slots))
	edges []uint64
}

// Add inserts edge e and reports whether it was new to the set.
func (s *EdgeSet) Add(e uint64) bool {
	if 2*(len(s.edges)+1) > len(s.slots) {
		s.grow()
	}
	return s.insert(e)
}

// insert places e in the table, appending it to edges if it is new, and
// reports whether it was. The table has room.
func (s *EdgeSet) insert(e uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (e * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = e + 1
			s.edges = append(s.edges, e)
			return true
		case e + 1:
			return false
		}
	}
}

// grow doubles the table (64 slots at first) and re-inserts every edge.
func (s *EdgeSet) grow() {
	n := max(64, 2*len(s.slots))
	s.slots = make([]uint64, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
	// Every edge is new to the fresh table, so re-inserting them in order
	// rewrites edges in place.
	edges := s.edges
	s.edges = s.edges[:0]
	for _, e := range edges {
		s.insert(e)
	}
}

// Len returns the number of distinct edges.
func (s *EdgeSet) Len() int { return len(s.edges) }

// Edges returns the edges in first-hit order. The slice is the set's own
// storage: it is valid until the next Add or Clear.
func (s *EdgeSet) Edges() []uint64 { return s.edges }

// Clear empties the set, keeping its storage.
func (s *EdgeSet) Clear() {
	clear(s.slots)
	s.edges = s.edges[:0]
}
