package hints

import (
	"reflect"
	"testing"
	"testing/quick"

	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// ev helpers build profiled event streams.
func st(instr trace.InstrID, addr trace.Addr) trace.Event {
	return trace.Event{Acc: trace.AccessEvent{Instr: instr, Addr: addr, Kind: trace.Store}}
}
func ld(instr trace.InstrID, addr trace.Addr) trace.Event {
	return trace.Event{Acc: trace.AccessEvent{Instr: instr, Addr: addr, Kind: trace.Load}}
}
func bar(instr trace.InstrID, kind trace.BarrierKind) trace.Event {
	return trace.Event{Barrier: true, Bar: trace.BarrierEvent{Instr: instr, Kind: kind}}
}

const (
	a trace.Addr = 0x100
	b trace.Addr = 0x108
	c trace.Addr = 0x110
	d trace.Addr = 0x118
	e trace.Addr = 0x120 // private to one call
)

// TestFilterOutSharedOnly implements Algorithm 2's contract: only accesses
// to locations touched by both calls with at least one write survive.
func TestFilterOutSharedOnly(t *testing.T) {
	si := []trace.Event{st(1, a), st(2, e), ld(3, b), bar(4, trace.BarrierStore)}
	sj := []trace.Event{ld(10, a), ld(11, b), st(12, c)}
	fi, fj := FilterOut(si, sj)
	// a: store(i)+load(j) -> shared. e: private -> dropped.
	// b: load(i)+load(j) -> no write -> dropped. c: only j -> dropped.
	if len(fi) != 2 || !fi[0].Barrier == false || fi[0].Acc.Addr != a || !fi[1].Barrier {
		t.Fatalf("fi = %v", fi)
	}
	if len(fj) != 1 || fj[0].Acc.Addr != a {
		t.Fatalf("fj = %v", fj)
	}
}

// TestFilterKeepsBarriers: barriers survive filtering — they delimit
// Algorithm 1's groups.
func TestFilterKeepsBarriers(t *testing.T) {
	si := []trace.Event{bar(1, trace.BarrierFull), st(2, e), bar(3, trace.BarrierLoad)}
	sj := []trace.Event{ld(4, a)}
	fi, _ := FilterOut(si, sj)
	if len(fi) != 2 || !fi[0].Barrier || !fi[1].Barrier {
		t.Fatalf("barriers dropped: %v", fi)
	}
}

// TestStoreTestHints checks the Fig. 5a shape: a group of stores followed
// by a scheduling access; the hypothetical barrier slides upward with the
// scheduling point fixed at the group's last access.
func TestStoreTestHints(t *testing.T) {
	// Writer: W(a) W(b) W(c) W(d), no barrier — one trailing group.
	si := []trace.Event{st(1, a), st(2, b), st(3, c), st(4, d)}
	// Reader shares everything.
	sj := []trace.Event{ld(10, a), ld(11, b), ld(12, c), ld(13, d)}
	hs := Calculate(si, sj)
	var stHints []*Hint
	for _, h := range hs {
		if h.Reorderer == 0 && h.Test == StoreBarrierTest {
			stHints = append(stHints, h)
		}
	}
	if len(stHints) != 3 {
		t.Fatalf("want 3 store-test hints, got %d: %v", len(stHints), stHints)
	}
	for _, h := range stHints {
		if h.Sched != 4 {
			t.Errorf("scheduling point must stay at the last store (4), got %d", h.Sched)
		}
	}
	// Sorted by reorder count descending: {1,2,3}, {1,2}, {1}.
	if stHints[0].ReorderCount() != 3 || stHints[1].ReorderCount() != 2 || stHints[2].ReorderCount() != 1 {
		t.Fatalf("heuristic order broken: %v", stHints)
	}
	if stHints[0].Type() != "S-S" {
		t.Errorf("type = %s, want S-S", stHints[0].Type())
	}
}

// TestStoreLoadType: when the scheduling access is a load, the store test
// reports S-L reordering.
func TestStoreLoadType(t *testing.T) {
	si := []trace.Event{st(1, a), ld(2, d)}
	sj := []trace.Event{ld(10, a), st(13, d)}
	hs := Calculate(si, sj)
	found := false
	for _, h := range hs {
		if h.Reorderer == 0 && h.Test == StoreBarrierTest && h.SchedKind == trace.Load {
			found = true
			if h.Type() != "S-L" {
				t.Errorf("type = %s, want S-L", h.Type())
			}
		}
	}
	if !found {
		t.Fatal("no store-load hint produced")
	}
}

// TestLoadTestHints checks the Fig. 5b shape: the scheduling point is the
// group's FIRST load (it reads the updated value) and the versioned suffix
// shrinks.
func TestLoadTestHints(t *testing.T) {
	si := []trace.Event{ld(1, d), ld(2, c), ld(3, b), ld(4, a)}
	sj := []trace.Event{st(10, a), st(11, b), st(12, c), st(13, d)}
	hs := Calculate(si, sj)
	var ldHints []*Hint
	for _, h := range hs {
		if h.Reorderer == 0 && h.Test == LoadBarrierTest {
			ldHints = append(ldHints, h)
		}
	}
	if len(ldHints) != 3 {
		t.Fatalf("want 3 load-test hints, got %d: %v", len(ldHints), ldHints)
	}
	for _, h := range ldHints {
		if h.Sched != 1 {
			t.Errorf("scheduling point must stay at the first load (1), got %d", h.Sched)
		}
		if h.Type() != "L-L" {
			t.Errorf("type = %s, want L-L", h.Type())
		}
	}
	if ldHints[0].ReorderCount() != 3 {
		t.Fatalf("largest hint must version 3 loads, got %d", ldHints[0].ReorderCount())
	}
}

// TestBarriersSplitGroups: a store barrier closes the store-test group; the
// accesses before it never appear in the same group as those after.
func TestBarriersSplitGroups(t *testing.T) {
	si := []trace.Event{st(1, a), bar(9, trace.BarrierStore), st(2, b), st(3, c)}
	sj := []trace.Event{ld(10, a), ld(11, b), ld(12, c)}
	hs := Calculate(si, sj)
	for _, h := range hs {
		if h.Reorderer != 0 || h.Test != StoreBarrierTest {
			continue
		}
		for _, r := range h.Reorder {
			if r == 1 && h.Sched == 3 {
				t.Fatalf("store 1 grouped across the barrier: %v", h)
			}
		}
	}
}

// TestFullBarrierClosesBothGroupKinds: smp_mb() bounds both store-test and
// load-test groups.
func TestFullBarrierClosesBothGroupKinds(t *testing.T) {
	si := []trace.Event{st(1, a), ld(2, b), bar(9, trace.BarrierFull), st(3, c), ld(4, d)}
	sj := []trace.Event{ld(10, a), st(11, b), ld(12, c), st(13, d)}
	for _, h := range Calculate(si, sj) {
		if h.Reorderer != 0 {
			continue
		}
		pre := map[trace.InstrID]bool{1: true, 2: true}
		post := map[trace.InstrID]bool{3: true, 4: true}
		crosses := false
		if pre[h.Sched] {
			for _, r := range h.Reorder {
				if post[r] {
					crosses = true
				}
			}
		}
		if post[h.Sched] {
			for _, r := range h.Reorder {
				if pre[r] {
					crosses = true
				}
			}
		}
		if crosses {
			t.Fatalf("hint crosses smp_mb: %v", h)
		}
	}
}

// TestReleaseActsAsStoreBoundary / acquire as load boundary, per Table 1.
func TestReleaseAcquireBoundaries(t *testing.T) {
	si := []trace.Event{st(1, a), bar(2, trace.BarrierRelease), st(2, b)}
	sj := []trace.Event{ld(10, a), ld(11, b)}
	for _, h := range Calculate(si, sj) {
		if h.Reorderer == 0 && h.Test == StoreBarrierTest && h.Sched == 2 {
			for _, r := range h.Reorder {
				if r == 1 {
					t.Fatalf("store delayed across release: %v", h)
				}
			}
		}
	}
}

// TestBothCallsGetHints: hints are produced with each call as the
// reorderer (Algorithm 1 iterates k over {i, j}).
func TestBothCallsGetHints(t *testing.T) {
	si := []trace.Event{st(1, a), st(2, b)}
	sj := []trace.Event{st(10, a), st(11, b)}
	seen := map[int]bool{}
	for _, h := range Calculate(si, sj) {
		seen[h.Reorderer] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("reorderers seen: %v", seen)
	}
}

// TestSchedOccurrence: repeated executions of the same site get the right
// dynamic occurrence index.
func TestSchedOccurrence(t *testing.T) {
	si := []trace.Event{st(1, a), st(1, b), st(2, c)}
	sj := []trace.Event{ld(10, a), ld(11, b), ld(12, c)}
	for _, h := range Calculate(si, sj) {
		if h.Reorderer == 0 && h.Test == StoreBarrierTest && h.Sched == 2 {
			if h.SchedOcc != 1 {
				t.Fatalf("occ = %d, want 1", h.SchedOcc)
			}
		}
	}
}

// TestNoHintsWithoutSharing: fully disjoint calls produce no hints.
func TestNoHintsWithoutSharing(t *testing.T) {
	si := []trace.Event{st(1, a), st(2, b)}
	sj := []trace.Event{st(10, c), ld(11, d)}
	if hs := Calculate(si, sj); len(hs) != 0 {
		t.Fatalf("expected no hints, got %v", hs)
	}
}

// TestPropertyReorderNeverContainsSched: no hint's reorder set contains its
// own scheduling site, and reorder sets match the test's access kind —
// invariants the executor relies on.
func TestPropertyReorderNeverContainsSched(t *testing.T) {
	f := func(ops []uint16) bool {
		var si, sj []trace.Event
		for n, op := range ops {
			if n > 20 {
				break
			}
			instr := trace.InstrID(op%7 + 1)
			addr := trace.Addr(0x100 + uint64(op%5)*8)
			var ev trace.Event
			switch op % 4 {
			case 0:
				ev = st(instr, addr)
			case 1:
				ev = ld(instr, addr)
			case 2:
				ev = bar(instr, trace.BarrierStore)
			default:
				ev = bar(instr, trace.BarrierLoad)
			}
			if op%2 == 0 {
				si = append(si, ev)
			} else {
				sj = append(sj, ev)
			}
		}
		for _, h := range Calculate(si, sj) {
			for _, r := range h.Reorder {
				if r == h.Sched {
					return false
				}
			}
			if h.ReorderCount() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySortedByHeuristic: Calculate's result is sorted by descending
// reorder count (the §4.3 search heuristic).
func TestPropertySortedByHeuristic(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%6) + 2
		var si, sj []trace.Event
		for i := 0; i < count; i++ {
			si = append(si, st(trace.InstrID(i+1), trace.Addr(0x100+uint64(i)*8)))
			sj = append(sj, ld(trace.InstrID(100+i), trace.Addr(0x100+uint64(i)*8)))
		}
		hs := Calculate(si, sj)
		for i := 1; i < len(hs); i++ {
			if hs[i-1].ReorderCount() < hs[i].ReorderCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointPairAllocs: with a reused Scratch, a pair sharing no
// location allocates nothing and yields nil. Both calls load b, which
// shares nothing without a write. A pair sharing written locations, one
// of them per-CPU, yields hints, and a warm Scratch, which owns them,
// computes those without allocating too.
func TestDisjointPairAllocs(t *testing.T) {
	si := []trace.Event{st(1, a), ld(2, b), bar(3, trace.BarrierFull), st(4, a)}
	sj := []trace.Event{ld(10, b), ld(11, c), st(12, d), bar(13, trace.BarrierStore)}
	var sc Scratch
	var hs []*Hint
	allocs := testing.AllocsPerRun(100, func() {
		hs = sc.CalculateModel(si, sj, memmodel.LKMM)
	})
	if hs != nil {
		t.Fatalf("hints for a pair sharing no written location: %v", hs)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs, want 0", allocs)
	}

	pc := ld(5, d)
	pc.Acc.PerCPU = true
	si = []trace.Event{st(1, a), st(2, b), st(3, c), pc, ld(6, a)}
	sj = []trace.Event{ld(10, c), ld(11, b), ld(12, a), st(13, d)}
	want := CalculateModel(si, sj, memmodel.LKMM)
	if len(want) < 2 || len(want[0].Migrate) == 0 {
		t.Fatalf("shared pair: %d hints, Migrate %v; want several, migration-sensitive", len(want), want)
	}
	allocs = testing.AllocsPerRun(100, func() {
		hs = sc.CalculateModel(si, sj, memmodel.LKMM)
	})
	if !reflect.DeepEqual(hs, want) {
		t.Fatalf("warm scratch hints\n%v\nwant\n%v", hs, want)
	}
	if allocs != 0 {
		t.Fatalf("shared pair: %v allocs, want 0", allocs)
	}
}

// TestPropertyScratchReuse: one Scratch reused over a stream of random
// pairs gives every pair the hints a fresh calculation gives it, however
// much larger or smaller the previous pair's hint set was.
func TestPropertyScratchReuse(t *testing.T) {
	var sc Scratch
	f := func(ops []uint16) bool {
		var si, sj []trace.Event
		for n, op := range ops {
			if n > 40 {
				break
			}
			ev := st(trace.InstrID(op%9+1), trace.Addr(0x100+uint64(op%5)*8))
			switch op % 5 {
			case 1:
				ev.Acc.Kind = trace.Load
			case 2:
				ev.Acc.PerCPU = true
			case 3:
				ev = bar(trace.InstrID(op%9+1), trace.BarrierStore)
			case 4:
				ev = bar(trace.InstrID(op%9+1), trace.BarrierLoad)
			}
			if op%2 == 0 {
				si = append(si, ev)
			} else {
				sj = append(sj, ev)
			}
		}
		for _, mm := range memmodel.All() {
			if !reflect.DeepEqual(sc.CalculateModel(si, sj, mm), CalculateModel(si, sj, mm)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// rmw is a read-modify-write at instr: the load half, then the store half,
// which shares the load half's scheduling point (NoYield).
func rmw(instr trace.InstrID, addr trace.Addr) []trace.Event {
	s := st(instr, addr)
	s.Acc.NoYield = true
	return []trace.Event{ld(instr, addr), s}
}

// TestRMWStoreHalfOccurrence pins the breakpoint occurrence of an RMW's
// NoYield store half: it is its load half's, under both test kinds. Three
// RMWs at site 5, split by full barriers, are the 1st, 2nd and 3rd
// scheduling points of site 5; counting the store halves as well would
// make them the 1st, 3rd and 5th.
func TestRMWStoreHalfOccurrence(t *testing.T) {
	var si []trace.Event
	si = append(si, rmw(5, a)...)
	si = append(si, ld(8, d), bar(20, trace.BarrierFull), st(7, c))
	si = append(si, rmw(5, a)...)
	si = append(si, bar(21, trace.BarrierFull))
	si = append(si, rmw(5, a)...)
	si = append(si, ld(9, e))
	sj := []trace.Event{ld(10, a), ld(11, c), st(12, d), st(13, e)}

	type key struct {
		test  TestKind
		sched trace.InstrID
		occ   int
	}
	got := map[key][]trace.InstrID{}
	for _, h := range Calculate(si, sj) {
		if h.Reorderer == 0 {
			got[key{h.Test, h.Sched, h.SchedOcc}] = h.Reorder
		}
	}
	want := map[key][]trace.InstrID{
		// Store test: the 2nd RMW's store half ends its group and is
		// the scheduling point, at site 5's 2nd occurrence.
		{StoreBarrierTest, 8, 1}: {5},
		{StoreBarrierTest, 5, 2}: {7},
		{StoreBarrierTest, 9, 1}: {5},
		// Load test: each RMW's load half leads a group.
		{LoadBarrierTest, 5, 1}: {8},
		{LoadBarrierTest, 5, 3}: {9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reorderer-0 hints:\n got %v\nwant %v", got, want)
	}
}
