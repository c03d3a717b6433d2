package kmem

import (
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ozz/internal/trace"
)

func TestAllocValidAccess(t *testing.T) {
	m := New()
	a := m.Alloc(3)
	for i := 0; i < 3; i++ {
		if f := m.Check(1, a+trace.Addr(i*WordSize), trace.Load); f != nil {
			t.Fatalf("valid slot %d faulted: %v", i, f)
		}
	}
}

func TestAllocPoisonPattern(t *testing.T) {
	m := New()
	a := m.Alloc(1)
	if m.Read(a) != 0xdead4ead_deadbeef {
		t.Fatalf("kmalloc memory not poisoned: %#x", m.Read(a))
	}
	z := m.AllocZeroed(1)
	if m.Read(z) != 0 {
		t.Fatalf("kzalloc memory not zeroed: %#x", m.Read(z))
	}
}

func TestRedzoneOOB(t *testing.T) {
	m := New()
	a := m.Alloc(2)
	f := m.Check(1, a+2*WordSize, trace.Load) // one past the end
	if f == nil || f.Kind != FaultOOB {
		t.Fatalf("expected OOB at trailing redzone, got %v", f)
	}
	f = m.Check(1, a-WordSize, trace.Store) // one before the start
	if f == nil || f.Kind != FaultOOB {
		t.Fatalf("expected OOB at leading redzone, got %v", f)
	}
}

func TestUseAfterFree(t *testing.T) {
	m := New()
	a := m.Alloc(2)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	f := m.Check(1, a, trace.Load)
	if f == nil || f.Kind != FaultUAF {
		t.Fatalf("expected UAF, got %v", f)
	}
	// Freed memory is poisoned.
	if m.Read(a) != 0xdeadbeef_deadbeef {
		t.Fatalf("freed memory not poisoned: %#x", m.Read(a))
	}
}

func TestInvalidFree(t *testing.T) {
	m := New()
	a := m.Alloc(2)
	if err := m.Free(a + WordSize); err == nil {
		t.Fatal("freeing interior pointer must fail")
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free must fail")
	}
}

func TestNullAndWild(t *testing.T) {
	m := New()
	if f := m.Check(1, 0x10, trace.Load); f == nil || f.Kind != FaultNull {
		t.Fatalf("expected NULL fault, got %v", f)
	}
	if f := m.Check(1, NullPage+8, trace.Store); f == nil || f.Kind != FaultWild {
		t.Fatalf("expected wild fault, got %v", f)
	}
}

func TestSanitizeOff(t *testing.T) {
	m := New()
	m.Sanitize = false
	if f := m.Check(1, 0, trace.Load); f != nil {
		t.Fatalf("sanitize off must not fault: %v", f)
	}
}

func TestQuarantineEviction(t *testing.T) {
	m := New()
	first := m.Alloc(1)
	if err := m.Free(first); err != nil {
		t.Fatal(err)
	}
	// Overflow the quarantine.
	for i := 0; i < 100; i++ {
		a := m.Alloc(1)
		if err := m.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	// The first object left quarantine: its slots are unmapped now (a
	// wild fault, no longer a precise UAF).
	f := m.Check(1, first, trace.Load)
	if f == nil || f.Kind != FaultUAF {
		if f == nil || f.Kind != FaultWild {
			t.Fatalf("expected wild/unmapped after eviction, got %v", f)
		}
	}
}

// TestStats: the allocator tracks live objects and the quarantine of
// freed ones.
func TestStats(t *testing.T) {
	m := New()
	a := m.Alloc(1)
	m.AllocZeroed(2)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if live, freed := len(m.objects), len(m.quarantine); live != 1 || freed != 1 {
		t.Fatalf("live/quarantined = %d/%d, want 1/1", live, freed)
	}
}

// TestPropertyAllocationsDisjoint: any sequence of allocations yields
// non-overlapping objects, all valid, each bounded by redzones.
func TestPropertyAllocationsDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New()
		type obj struct {
			base trace.Addr
			n    int
		}
		var objs []obj
		for _, s := range sizes {
			n := int(s%8) + 1
			objs = append(objs, obj{m.Alloc(n), n})
		}
		seen := map[trace.Addr]bool{}
		for _, o := range objs {
			for i := 0; i < o.n; i++ {
				a := o.base + trace.Addr(i*WordSize)
				if seen[a] || m.Check(1, a, trace.Load) != nil {
					return false
				}
				seen[a] = true
			}
			if m.Check(1, o.base+trace.Addr(o.n*WordSize), trace.Load) == nil {
				return false // trailing redzone must fault
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReadAfterWrite: the memory is a map — writes are always
// visible to subsequent reads at the same address.
func TestPropertyReadAfterWrite(t *testing.T) {
	f := func(addr uint32, v uint64) bool {
		m := New()
		a := trace.Addr(addr)
		m.Write(a, v)
		return m.Read(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultStrings(t *testing.T) {
	f := &Fault{Kind: FaultOOB, Addr: 0x100, Acc: trace.Store, Instr: 7}
	if got := f.Error(); got == "" || got[:len("slab-out-of-bounds")] != "slab-out-of-bounds" {
		t.Fatalf("Error() = %q", got)
	}
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultNull: "null-ptr-deref",
		FaultWild: "general-protection-fault", FaultUAF: "use-after-free",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	for s, want := range map[SlotState]string{
		Unmapped: "unmapped", Valid: "valid", Redzone: "redzone", Freed: "freed",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
}

func TestObjectWords(t *testing.T) {
	m := New()
	a := m.Alloc(3)
	if m.ObjectWords(a) != 3 || m.ObjectWords(a+8) != 0 {
		t.Fatal("ObjectWords broken")
	}
	m.Free(a)
	if m.ObjectWords(a) != 0 {
		t.Fatal("freed object still reported live")
	}
}

func TestZeroSizeAllocRoundsUp(t *testing.T) {
	m := New()
	a := m.Alloc(0)
	if m.Check(1, a, trace.Load) != nil {
		t.Fatal("zero-size alloc unusable")
	}
	if m.Check(1, a+WordSize, trace.Load) == nil {
		t.Fatal("zero-size alloc larger than one word")
	}
}

// TestFreeFindsObjectByBase: Free looks objects up by base among many
// live ones. Freeing a middle object leaves its neighbours live; an
// interior, redzone or never-allocated address, a second free, and a
// free of an object from before a Reset are all invalid frees.
func TestFreeFindsObjectByBase(t *testing.T) {
	m := New()
	var objs []trace.Addr
	for n := 1; n <= 9; n++ {
		objs = append(objs, m.Alloc(n))
	}
	mid := objs[4]
	if err := m.Free(mid); err != nil {
		t.Fatal(err)
	}
	for i, a := range objs {
		if want := i + 1; i != 4 && m.ObjectWords(a) != want {
			t.Fatalf("object %d: %d words, want %d", i, m.ObjectWords(a), want)
		}
	}
	for _, bad := range []trace.Addr{mid, objs[2] + WordSize, objs[2] - WordSize, heapBase - WordSize, m.next + 64*WordSize} {
		if err := m.Free(bad); err == nil {
			t.Fatalf("Free(%#x) succeeded", uint64(bad))
		}
	}
	if live, freed := len(m.objects), len(m.quarantine); live != 8 || freed != 1 {
		t.Fatalf("live/quarantined = %d/%d, want 8/1", live, freed)
	}

	m.Reset()
	if err := m.Free(objs[8]); err == nil {
		t.Fatal("freeing an object allocated before Reset succeeded")
	}
	// The reset allocator hands out the first base again: that is a new,
	// live object.
	if a := m.Alloc(2); a != objs[0] {
		t.Fatalf("first base after Reset = %#x, want %#x", uint64(a), uint64(objs[0]))
	}
	if err := m.Free(objs[0]); err != nil {
		t.Fatal(err)
	}
	if live, freed := len(m.objects), len(m.quarantine); live != 0 || freed != 1 {
		t.Fatalf("after Reset: live/quarantined = %d/%d, want 0/1", live, freed)
	}
}

// TestAllocAcrossPages: an object spanning a page boundary is valid,
// poisoned or zeroed, and redzoned on every word, and its free poisons
// every word; a zero-word kzalloc keeps kmalloc's poison.
func TestAllocAcrossPages(t *testing.T) {
	m := New()
	m.Alloc(pageWords - 3) // leaves the next object two words before a page end
	for _, zero := range []bool{false, true} {
		n := pageWords + 5
		a, want := m.Alloc(n), allocPoison
		if zero {
			a, want = m.AllocZeroed(n), 0
		}
		for i := 0; i < n; i++ {
			w := a + trace.Addr(i*WordSize)
			if m.Check(1, w, trace.Load) != nil || m.Read(w) != want {
				t.Fatalf("zero=%v word %d: state %v value %#x", zero, i, m.Check(1, w, trace.Load), m.Read(w))
			}
		}
		if f := m.Check(1, a+trace.Addr(n*WordSize), trace.Load); f == nil || f.Kind != FaultOOB {
			t.Fatalf("zero=%v: trailing redzone gave %v", zero, f)
		}
		if err := m.Free(a); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			w := a + trace.Addr(i*WordSize)
			if f := m.Check(1, w, trace.Load); f == nil || f.Kind != FaultUAF || m.Read(w) != freePoison {
				t.Fatalf("zero=%v freed word %d: fault %v value %#x", zero, i, f, m.Read(w))
			}
		}
	}
	if z := m.AllocZeroed(0); m.Read(z) != allocPoison || m.Check(1, z, trace.Load) != nil {
		t.Fatalf("AllocZeroed(0) word = %#x", m.Read(z))
	}
}

// TestResetZeroesDirtyPages runs random alloc, free, write, read and check
// sequences over several pages (writes also past the allocations),
// Resetting between rounds. Before each Reset, the dirty list must hold
// exactly the pages the round wrote (its allocations with their
// redzones, and its Writes), not the pages it only read or checked, and
// no page may hold a non-zero slot outside its dirty span. Reset must
// leave a clean page and the slots outside a dirty span alone; after it,
// every page must be zero, every address the test touched must Check as
// on New(), and the allocator must hand out New()'s bases.
func TestResetZeroesDirtyPages(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m, fresh := New(), New()
	pageOf := func(a trace.Addr) uint64 { return uint64(a) / WordSize / pageWords }
	var touched []trace.Addr
	// cleanRounds and spanRounds count the rounds whose Reset had a clean
	// page, and a dirty page with slots outside its span, to skip.
	cleanRounds, spanRounds := 0, 0
	for round := 0; round < 50; round++ {
		written := map[uint64]bool{}
		var live []trace.Addr
		for op := 0; op < 40; op++ {
			switch k := rng.IntN(6); {
			case k == 0 || len(live) == 0:
				n := 1 + rng.IntN(2*pageWords/3)
				a := m.Alloc(n)
				for w := a - WordSize; w <= a+trace.Addr(n*WordSize); w += WordSize {
					written[pageOf(w)] = true
				}
				live = append(live, a)
				touched = append(touched, a-WordSize, a, a+trace.Addr((n-1)*WordSize), a+trace.Addr(n*WordSize))
			case k == 1:
				i := rng.IntN(len(live))
				if err := m.Free(live[i]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			case k == 2:
				a := live[rng.IntN(len(live))]
				m.Write(a, rng.Uint64())
				touched = append(touched, a)
			case k == 3:
				// Write checks nothing, so it can write a page no
				// allocation touched.
				a := m.next + trace.Addr(rng.IntN(4*pageWords)*WordSize)
				m.Write(a, 1+rng.Uint64N(1<<32))
				written[pageOf(a)] = true
				touched = append(touched, a)
			default:
				// Reads and checks beyond the allocations create pages
				// without writing them.
				a := m.next + trace.Addr(rng.IntN(4*pageWords)*WordSize)
				m.Read(a)
				m.Check(1, a, trace.Load)
				touched = append(touched, a)
			}
		}
		got := map[uint64]bool{}
		for idx, p := range m.pages {
			if p.lo != p.hi {
				got[idx] = true
			}
			for i := range pageWords {
				if (p.vals[i] != 0 || p.state[i] != Unmapped) && (i < int(p.lo) || i >= int(p.hi)) {
					t.Fatalf("round %d: page %d slot %d written outside its dirty span [%d, %d)", round, idx, i, p.lo, p.hi)
				}
			}
		}
		if len(got) != len(m.dirty) || !maps.Equal(got, written) {
			t.Fatalf("round %d: %d dirty pages %v (list %d), wrote %v", round, len(got), got, len(m.dirty), written)
		}
		// Mark slots Reset must skip behind the memory's back: one of a
		// clean page, and one just past a dirty page's span.
		var marks []*uint64
		markedClean, markedSpan := false, false
		for _, p := range m.pages {
			switch {
			case p.lo == p.hi && !markedClean:
				markedClean = true
				marks = append(marks, &p.vals[0])
			case p.lo != p.hi && p.hi < pageWords && !markedSpan:
				markedSpan = true
				marks = append(marks, &p.vals[p.hi])
			}
		}
		if markedClean {
			cleanRounds++
		}
		if markedSpan {
			spanRounds++
		}
		for _, v := range marks {
			*v = 7
		}
		m.Reset()
		if len(m.dirty) != 0 {
			t.Fatalf("round %d: %d dirty pages after Reset", round, len(m.dirty))
		}
		for _, v := range marks {
			if *v != 7 {
				t.Fatalf("round %d: Reset zeroed a slot no one wrote", round)
			}
			*v = 0
		}
		for idx, p := range m.pages {
			if *p != (page{}) {
				t.Fatalf("round %d: page %d not zero after Reset", round, idx)
			}
		}
		for _, a := range touched {
			if !reflect.DeepEqual(m.Check(1, a, trace.Store), fresh.Check(1, a, trace.Store)) {
				t.Fatalf("round %d: %#x after Reset checks %v; New() checks %v",
					round, uint64(a), m.Check(1, a, trace.Store), fresh.Check(1, a, trace.Store))
			}
		}
		if a, b := m.Alloc(3), New().Alloc(3); a != b {
			t.Fatalf("round %d: first base after Reset %#x, New() %#x", round, uint64(a), uint64(b))
		}
		m.Reset()
	}
	if cleanRounds == 0 || spanRounds == 0 {
		t.Fatalf("%d rounds had a clean page and %d a partly dirty one: the skips went unchecked", cleanRounds, spanRounds)
	}
}
