package oemu

import (
	"testing"

	"ozz/internal/kmem"
	"ozz/internal/trace"
)

// runWorkload drives one representative no-directive execution over a
// recycled emulator: two threads storing, loading (plain and annotated),
// hitting barriers, and draining at the syscall boundary.
func runWorkload(em *OEMU) {
	a := em.NewThread()
	b := em.NewThread()
	for i := 0; i < 8; i++ {
		site := trace.InstrID(i + 1)
		a.Store(site, addrX+trace.Addr(i%4*8), uint64(i), trace.Plain)
		_ = b.Load(site, addrX+trace.Addr(i%4*8), trace.Once)
		a.Barrier(trace.BarrierStore)
		_ = a.Load(site, addrY, trace.Plain)
		b.Store(site, addrZ, uint64(i), trace.AtomicRelease)
	}
	a.FlushAtSyscallExit()
	b.FlushAtSyscallExit()
}

// TestRecycledRunAllocationFree is the steady-state allocation regression
// gate: once an emulator has been through one run (intern table populated,
// rings and thread structs built), a recycled no-directive run must not
// allocate at all — Reset recycles the arenas instead of reallocating.
func TestRecycledRunAllocationFree(t *testing.T) {
	mem := kmem.New()
	mem.Sanitize = false
	em := New(mem)
	// Warm-up: populate intern table, rings, thread freelist.
	for i := 0; i < 3; i++ {
		runWorkload(em)
		mem.Reset()
		em.Reset()
	}
	allocs := testing.AllocsPerRun(50, func() {
		runWorkload(em)
		mem.Reset()
		em.Reset()
	})
	if allocs != 0 {
		t.Fatalf("recycled no-directive run allocates %.1f times, want 0", allocs)
	}
}

// TestRecycledRunAllocationFreeTracked repeats the gate with store-history
// tracking left on (the default): ring recycling and in-place stamp writes
// must keep the tracked path allocation-free too.
func TestRecycledRunAllocationFreeTracked(t *testing.T) {
	mem := kmem.New()
	mem.Sanitize = false
	em := New(mem)
	for i := 0; i < 3; i++ {
		runWorkload(em)
		mem.Reset()
		em.Reset()
	}
	if !em.trackHistory {
		t.Fatal("tracking should be on by default after Reset")
	}
	allocs := testing.AllocsPerRun(50, func() {
		runWorkload(em)
		mem.Reset()
		em.Reset()
	})
	if allocs != 0 {
		t.Fatalf("tracked recycled run allocates %.1f times, want 0", allocs)
	}
}

// TestHistoryTrackingGate pins the tracking switch semantics: with tracking
// off nothing is recorded, re-arming mid-run floors versioned loads at the
// re-arm point, and Reset restores the default.
func TestHistoryTrackingGate(t *testing.T) {
	em, ths, mem := env(2)
	a, b := ths[0], ths[1]
	em.SetHistoryTracking(false)
	a.Store(1, addrX, 1, trace.Plain)
	a.Store(1, addrX, 2, trace.Plain)
	if got := mem.Read(addrX); got != 2 {
		t.Fatalf("stores must still commit with tracking off: X=%d", got)
	}
	// Re-arm mid-run: the directive path comes back, but the pre-arm
	// history was never recorded, so the load cannot observe X=1 or X=0.
	a.Dir.ReadOldValueAt(2)
	if !em.trackHistory {
		t.Fatal("ReadOldValueAt must re-arm history tracking")
	}
	if got := a.Load(2, addrX, trace.Plain); got != 2 {
		t.Fatalf("versioned load reached past the re-arm point: got %d, want 2", got)
	}
	b.Store(3, addrX, 3, trace.Plain)
	// Now a post-arm old value exists from another thread: the window
	// floor is the arm point, and CoRR pins the already-seen version 2.
	if got := a.Load(2, addrX, trace.Plain); got != 2 {
		t.Fatalf("versioned load after re-arm: got %d, want old value 2", got)
	}
	em.Reset()
	if !em.trackHistory {
		t.Fatal("Reset must restore tracking to the default (on)")
	}
}

// TestDirectiveSetSemantics pins the sorted-set behavior of the directive
// slices: duplicates collapse, membership is exact, reset empties them.
func TestDirectiveSetSemantics(t *testing.T) {
	var d Directives
	for _, i := range []trace.InstrID{9, 3, 9, 1, 3, 200} {
		d.DelayStoreAt(i)
	}
	for _, i := range []trace.InstrID{1, 3, 9, 200} {
		if !d.hasDelay(i) {
			t.Fatalf("site %d missing from delay set", i)
		}
	}
	for _, i := range []trace.InstrID{0, 2, 4, 199, 201} {
		if d.hasDelay(i) {
			t.Fatalf("site %d unexpectedly in delay set", i)
		}
	}
	if len(d.delayStore) != 4 {
		t.Fatalf("duplicates not collapsed: %v", d.delayStore)
	}
	d.reset()
	if d.hasDelay(1) || len(d.delayStore) != 0 {
		t.Fatalf("reset left sites behind: %v", d.delayStore)
	}
}
