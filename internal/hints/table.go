package hints

// table is an open-addressing hash table from 64-bit keys (addresses,
// instruction sites) to small counters, owned by a Scratch and emptied
// in O(1): a slot holds an entry only while it carries the table's
// current generation, so reset just starts a new one. Hint calculation
// empties its tables several times per call pair, which is why a Go map,
// whose clear costs its whole bucket array, does not fit. The zero table
// is empty but must be reset before its first use.
type table struct {
	slots []slot
	shift uint   // 64 - log2(len(slots))
	gen   uint32 // the current generation; 0 only before the first reset
	n     int    // entries of the current generation
}

type slot struct {
	key uint64
	gen uint32
	val uint32
}

// minSlots is a new table's size. A table doubles when it is half full
// and keeps its size across resets, so it grows only until it fits the
// scratch's largest pair; starting small keeps the scratch of a pool
// that only sees small pairs small.
const minSlots = 16

// reset empties t. When the generation counter wraps, stale slots could
// carry the new generation, so they are cleared first.
func (t *table) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// hash spreads key over the slot indexes (Fibonacci hashing: the top
// bits of the product mix every bit of key, so word-aligned addresses
// spread evenly).
func (t *table) hash(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns key's counter, or nil when key has no entry.
func (t *table) find(key uint64) *uint32 {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.hash(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return nil
		}
		if s.key == key {
			return &s.val
		}
	}
}

// at returns key's counter, inserting it at 0 when key has no entry. The
// pointer is valid until the next insertion.
func (t *table) at(key uint64) *uint32 {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.hash(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = slot{key: key, gen: t.gen}
			t.n++
			return &s.val
		}
		if s.key == key {
			return &s.val
		}
	}
}

// grow doubles t's slots (or makes its first ones) and moves the current
// generation's entries over.
func (t *table) grow() {
	old := t.slots
	size := max(minSlots, 2*len(old))
	t.slots = make([]slot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := size - 1
	for _, o := range old {
		if o.gen != t.gen {
			continue
		}
		i := t.hash(o.key)
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = o
	}
}
