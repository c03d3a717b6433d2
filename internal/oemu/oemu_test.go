package oemu

import (
	"testing"
	"testing/quick"

	"ozz/internal/kmem"
	"ozz/internal/trace"
)

// env builds an emulator over fresh memory with n threads.
func env(n int) (*OEMU, []*Thread, *kmem.Memory) {
	mem := kmem.New()
	mem.Sanitize = false // raw-address tests
	em := New(mem)
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = em.NewThread()
	}
	return em, ths, mem
}

const (
	addrX trace.Addr = 0x1000_0000
	addrY trace.Addr = 0x1000_0008
	addrZ trace.Addr = 0x1000_0010
	addrW trace.Addr = 0x1000_0018
)

// TestInOrderByDefault: with no directives, stores commit immediately and
// loads read memory — OEMU is a no-op (§3.1 "Unless specifically
// instructed, the virtual store buffer commits values immediately").
func TestInOrderByDefault(t *testing.T) {
	_, ths, mem := env(2)
	a, b := ths[0], ths[1]
	a.Store(1, addrX, 1, trace.Plain)
	if got := mem.Read(addrX); got != 1 {
		t.Fatalf("store not committed: got %d", got)
	}
	if got := b.Load(2, addrX, trace.Plain); got != 1 {
		t.Fatalf("other thread sees %d, want 1", got)
	}
	if len(a.sb) != 0 {
		t.Fatalf("unexpected pending stores: %d", len(a.sb))
	}
}

// TestDelayedStoreFig3 reproduces Figure 3: delay_store_at(I1) holds X's
// value in the virtual store buffer while Y commits; smp_wmb() drains.
func TestDelayedStoreFig3(t *testing.T) {
	_, ths, mem := env(2)
	a := ths[0]
	a.Dir.DelayStoreAt(1)

	a.Store(1, addrX, 1, trace.Plain) // I1: delayed
	a.Store(2, addrY, 2, trace.Plain) // I2: commits immediately
	if got := mem.Read(addrX); got != 0 {
		t.Fatalf("delayed store leaked to memory: X=%d", got)
	}
	if got := mem.Read(addrY); got != 2 {
		t.Fatalf("undelayed store did not commit: Y=%d", got)
	}
	if v, ok := a.PendingAt(addrX); !ok || v != 1 {
		t.Fatalf("store buffer should hold X=1, got %d/%v", v, ok)
	}
	// Another thread observes I2 before I1 — the store-store reordering.
	b := ths[1]
	if b.Load(3, addrY, trace.Plain) != 2 || b.Load(4, addrX, trace.Plain) != 0 {
		t.Fatalf("observer did not see the reordering")
	}
	// The barrier commits the delayed store (Figure 3 step 5).
	a.Barrier(trace.BarrierStore)
	if got := mem.Read(addrX); got != 1 {
		t.Fatalf("smp_wmb did not flush: X=%d", got)
	}
}

// TestStoreForwarding: the delaying thread itself reads its own in-flight
// value (hierarchical search: store buffer first, §3.1).
func TestStoreForwarding(t *testing.T) {
	_, ths, _ := env(1)
	a := ths[0]
	a.Dir.DelayStoreAt(1)
	a.Store(1, addrX, 7, trace.Plain)
	if got := a.Load(2, addrX, trace.Plain); got != 7 {
		t.Fatalf("store-to-load forwarding failed: got %d", got)
	}
}

// TestCoalescingPreservesCoherence: two stores to the same location with
// the first delayed must not commit out of order (per-location coherence);
// the buffer coalesces and the final value wins.
func TestCoalescingPreservesCoherence(t *testing.T) {
	_, ths, mem := env(1)
	a := ths[0]
	a.Dir.DelayStoreAt(1)
	a.Store(1, addrX, 1, trace.Plain)
	a.Store(2, addrX, 2, trace.Plain) // same location: coalesces, not reordered
	if got := mem.Read(addrX); got != 0 {
		t.Fatalf("coalesced store leaked: X=%d", got)
	}
	a.Flush()
	if got := mem.Read(addrX); got != 2 {
		t.Fatalf("final value after flush: got %d, want 2", got)
	}
}

// TestInterruptFlushes: an interrupt drains the virtual store buffer
// (§3.1).
func TestInterruptFlushes(t *testing.T) {
	_, ths, mem := env(1)
	a := ths[0]
	a.Dir.DelayStoreAt(1)
	a.Store(1, addrX, 9, trace.Plain)
	a.Interrupt()
	if got := mem.Read(addrX); got != 9 {
		t.Fatalf("interrupt did not flush: X=%d", got)
	}
}

// TestVersionedLoadFig4 reproduces Figure 4: after smp_rmb() at t3, stores
// by another thread commit to W and Z; a versioned load on Z reads the old
// value (0) while the plain load on W reads the updated value.
func TestVersionedLoadFig4(t *testing.T) {
	_, ths, _ := env(2)
	a, b := ths[0], ths[1]
	// Pre-history: initial values.
	b.Store(10, addrW, 1, trace.Plain) // W=1 before the window
	a.Barrier(trace.BarrierLoad)       // t3: smp_rmb — window starts here
	b.Store(11, addrZ, 1, trace.Plain) // t4 (Z: 0 -> 1)
	b.Store(12, addrW, 2, trace.Plain) // t5 (W: 1 -> 2)

	a.Dir.ReadOldValueAt(2)
	r1 := a.Load(1, addrW, trace.Plain) // I1: default behaviour — updated value
	r2 := a.Load(2, addrZ, trace.Plain) // I2: versioned — old value
	if r1 != 2 {
		t.Errorf("I1 should read the updated W=2, got %d", r1)
	}
	if r2 != 0 {
		t.Errorf("I2 should read the old Z=0, got %d", r2)
	}
}

// TestVersioningWindowBound: a versioned load must not read values older
// than the last load barrier (§3.2 versioning window).
func TestVersioningWindowBound(t *testing.T) {
	_, ths, _ := env(2)
	a, b := ths[0], ths[1]
	b.Store(10, addrZ, 1, trace.Plain) // Z: 0 -> 1 (before the window)
	a.Barrier(trace.BarrierLoad)       // window starts: values before are invalid
	b.Store(11, addrZ, 2, trace.Plain) // Z: 1 -> 2 (inside the window)

	a.Dir.ReadOldValueAt(1)
	got := a.Load(1, addrZ, trace.Plain)
	if got != 1 {
		t.Fatalf("versioned load must read the window-start value 1, got %d", got)
	}
}

// TestVersionedLoadNoHistory: with no store in the window, the versioned
// load falls back to memory.
func TestVersionedLoadNoHistory(t *testing.T) {
	_, ths, _ := env(2)
	a, b := ths[0], ths[1]
	b.Store(10, addrZ, 5, trace.Plain)
	a.Barrier(trace.BarrierLoad) // window excludes the store above
	a.Dir.ReadOldValueAt(1)
	if got := a.Load(1, addrZ, trace.Plain); got != 5 {
		t.Fatalf("fallback to memory failed: got %d", got)
	}
}

// TestOwnCommitBoundsVersioning: a thread's versioned load never reads a
// value older than the thread's own committed store to that location
// (store-buffer-priority generalized; per-location coherence).
func TestOwnCommitBoundsVersioning(t *testing.T) {
	_, ths, _ := env(2)
	a, b := ths[0], ths[1]
	b.Store(10, addrZ, 1, trace.Plain)
	a.Store(11, addrZ, 2, trace.Plain) // own committed store
	b.Store(12, addrZ, 3, trace.Plain)
	a.Dir.ReadOldValueAt(1)
	// Window spans everything, but a's own commit (Z=2) floors it: a may
	// read 2 (the value its own store left) but never 1 or 0.
	got := a.Load(1, addrZ, trace.Plain)
	if got != 2 {
		t.Fatalf("versioned load read %d; must not precede own store (want 2)", got)
	}
}

// --- LKMM compliance (§3.3, §10.1) -----------------------------------------

// lkmmSetup: thread a delays X and versions loads; helpers run the MP
// (message-passing) shape with a given publisher barrier and check whether
// the stale observation is possible.
func mpPublishObserve(t *testing.T, barrier func(*Thread), wantStale bool) {
	t.Helper()
	_, ths, _ := env(2)
	w, r := ths[0], ths[1]
	w.Dir.DelayStoreAt(1)
	w.Store(1, addrX, 1, trace.Plain) // data
	barrier(w)                        // candidate ordering point
	w.Store(2, addrY, 1, trace.Plain) // flag
	flag := r.Load(3, addrY, trace.Plain)
	data := r.Load(4, addrX, trace.Plain)
	stale := flag == 1 && data == 0
	if stale != wantStale {
		t.Fatalf("stale observation=%v, want %v (flag=%d data=%d)", stale, wantStale, flag, data)
	}
}

// TestLKMMCase1FullBarrier: smp_mb() between two stores forbids the
// reordering.
func TestLKMMCase1FullBarrier(t *testing.T) {
	mpPublishObserve(t, func(w *Thread) { w.Barrier(trace.BarrierFull) }, false)
}

// TestLKMMCase2StoreBarrier: smp_wmb() between two stores forbids the
// reordering; no barrier allows it.
func TestLKMMCase2StoreBarrier(t *testing.T) {
	mpPublishObserve(t, func(w *Thread) { w.Barrier(trace.BarrierStore) }, false)
	mpPublishObserve(t, func(w *Thread) {}, true)
}

// TestLKMMCase3LoadBarrier: smp_rmb() between two loads forbids the second
// from reading a value older than the barrier point.
func TestLKMMCase3LoadBarrier(t *testing.T) {
	run := func(withRmb bool) (flag, data uint64) {
		_, ths, _ := env(2)
		w, r := ths[0], ths[1]
		// Writer commits data then flag, properly ordered.
		w.Store(1, addrX, 1, trace.Plain)
		w.Barrier(trace.BarrierStore)
		w.Store(2, addrY, 1, trace.Plain)
		r.Dir.ReadOldValueAt(4)
		flag = r.Load(3, addrY, trace.Plain)
		if withRmb {
			r.Barrier(trace.BarrierLoad)
		}
		data = r.Load(4, addrX, trace.Plain)
		return flag, data
	}
	if flag, data := run(false); flag != 1 || data != 0 {
		t.Fatalf("without rmb the stale read must occur (flag=%d data=%d)", flag, data)
	}
	if flag, data := run(true); flag != 1 || data != 1 {
		t.Fatalf("with rmb the stale read must not occur (flag=%d data=%d)", flag, data)
	}
}

// TestLKMMCase4Acquire: a load-acquire forbids subsequent loads from
// reading values older than the acquire point.
func TestLKMMCase4Acquire(t *testing.T) {
	_, ths, _ := env(2)
	w, r := ths[0], ths[1]
	w.Store(1, addrX, 1, trace.Plain)
	w.Barrier(trace.BarrierStore)
	w.Store(2, addrY, 1, trace.Plain)
	r.Dir.ReadOldValueAt(4)
	flag := r.Load(3, addrY, trace.AtomicAcquire) // smp_load_acquire
	data := r.Load(4, addrX, trace.Plain)
	if flag != 1 || data != 1 {
		t.Fatalf("acquire must forbid the stale read (flag=%d data=%d)", flag, data)
	}
}

// TestLKMMCase5Release: a store-release flushes all precedent delayed
// stores before committing.
func TestLKMMCase5Release(t *testing.T) {
	_, ths, mem := env(1)
	a := ths[0]
	a.Dir.DelayStoreAt(1)
	a.Store(1, addrX, 1, trace.Plain)
	a.Store(2, addrY, 1, trace.AtomicRelease) // smp_store_release
	if mem.Read(addrX) != 1 || mem.Read(addrY) != 1 {
		t.Fatalf("release must flush precedent stores (X=%d Y=%d)",
			mem.Read(addrX), mem.Read(addrY))
	}
}

// TestLKMMCase6ReadOnceActsAsLoadBarrier: an annotated (READ_ONCE/atomic)
// load acts as a load barrier for subsequent loads — the conservative rule
// OEMU adopts for dependency Case 6 (§3.2); unannotated loads still reorder
// regardless of dependencies (the Alpha rule).
func TestLKMMCase6ReadOnceActsAsLoadBarrier(t *testing.T) {
	run := func(atom trace.Atomicity) uint64 {
		_, ths, _ := env(2)
		w, r := ths[0], ths[1]
		w.Store(1, addrX, 1, trace.Plain)
		w.Barrier(trace.BarrierStore)
		w.Store(2, addrY, 1, trace.Plain)
		r.Dir.ReadOldValueAt(4)
		r.Load(3, addrY, atom)
		return r.Load(4, addrX, trace.Plain)
	}
	if got := run(trace.Plain); got != 0 {
		t.Fatalf("plain first load: stale read must be possible, got %d", got)
	}
	if got := run(trace.Once); got != 1 {
		t.Fatalf("READ_ONCE first load: stale read must be forbidden, got %d", got)
	}
	if got := run(trace.Atomic); got != 1 {
		t.Fatalf("atomic first load: stale read must be forbidden, got %d", got)
	}
}

// TestLKMMCase7NoLoadStoreReordering: loads always execute at their program
// point and stores only move later, so a load can never be reordered after
// a later store by construction (§3 scope; Case 7). We verify the visible
// consequence: a store following a load cannot commit values the load
// should have seen.
func TestLKMMCase7NoLoadStoreReordering(t *testing.T) {
	_, ths, _ := env(2)
	a, b := ths[0], ths[1]
	// a loads X then stores Y; the load must complete (read memory) at
	// its program point even under maximal directives.
	a.Dir.ReadOldValueAt(1)
	a.Dir.DelayStoreAt(2)
	got := a.Load(1, addrX, trace.Plain) // no history: reads memory now
	a.Store(2, addrY, got+1, trace.Plain)
	b.Store(3, addrX, 42, trace.Plain) // later store by another thread
	a.Flush()
	// If the load had moved after a.Flush (i.e. after b's store), Y would
	// be 43. It must be 1.
	if v := a.em.Mem.Read(addrY); v != 1 {
		t.Fatalf("load-store reordering emulated: Y=%d, want 1", v)
	}
}

// TestDelayedStoresFlushInOrder: the buffer drains in program order (a
// store buffer is FIFO per location set).
func TestDelayedStoresFlushInOrder(t *testing.T) {
	em, ths, _ := env(1)
	a := ths[0]
	a.Dir.DelayStoreAt(1)
	a.Dir.DelayStoreAt(2)
	a.Store(1, addrX, 1, trace.Plain)
	a.Store(2, addrY, 2, trace.Plain)
	a.Flush()
	// History order: X then Y.
	hx := &em.hist[em.addrIndex[addrX]]
	hy := &em.hist[em.addrIndex[addrY]]
	if hx.n != 1 || hy.n != 1 || !(hx.at(0).time < hy.at(0).time) {
		t.Fatalf("flush order violated: X@%d Y@%d", hx.at(0).time, hy.at(0).time)
	}
}

// TestReorderCounters: the genuine reorderings of a run — delayed stores
// and versioned loads — are tallied apart from store-to-load forwards; the
// engine reports their sum as an MTI's Reordered count.
func TestReorderCounters(t *testing.T) {
	em, ths, _ := env(2)
	a, b := ths[0], ths[1]
	a.Dir.DelayStoreAt(1)
	a.Store(1, addrX, 1, trace.Plain)
	a.Load(3, addrX, trace.Plain) // forwarded from the store buffer
	b.Store(9, addrZ, 1, trace.Plain)
	a.Dir.ReadOldValueAt(2)
	if got := a.Load(2, addrZ, trace.Plain); got != 0 {
		t.Fatalf("versioned load read %d, want the old value 0", got)
	}
	n := em.Counters()
	if n.StoresDelayed != 1 || n.VersionedLoads != 1 || n.ForwardedLoads != 1 {
		t.Fatalf("delayed=%d versioned=%d forwarded=%d, want 1 each",
			n.StoresDelayed, n.VersionedLoads, n.ForwardedLoads)
	}
}

// TestPropertyCoherencePerLocation is a property test: for any sequence of
// stores by one thread to one location (with arbitrary delay directives and
// barriers), after a final flush the memory holds the LAST stored value —
// per-location program order is never violated.
func TestPropertyCoherencePerLocation(t *testing.T) {
	f := func(vals []uint64, delayMask uint8, barrierMask uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 8 {
			vals = vals[:8]
		}
		_, ths, mem := env(1)
		a := ths[0]
		for i := range vals {
			if delayMask&(1<<i) != 0 {
				a.Dir.DelayStoreAt(trace.InstrID(i + 1))
			}
		}
		for i, v := range vals {
			a.Store(trace.InstrID(i+1), addrX, v, trace.Plain)
			if barrierMask&(1<<i) != 0 {
				a.Barrier(trace.BarrierStore)
			}
		}
		a.Flush()
		return mem.Read(addrX) == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyObserverMonotonicAfterBarriers is a property test: when every
// store is separated by smp_wmb(), an observer can never see a later store
// without all earlier ones (no reordering is possible across barriers, no
// matter the directives).
func TestPropertyObserverMonotonicAfterBarriers(t *testing.T) {
	f := func(n uint8, delayMask uint8) bool {
		count := int(n%6) + 2
		_, ths, mem := env(2)
		w := ths[0]
		for i := 0; i < count; i++ {
			if delayMask&(1<<i) != 0 {
				w.Dir.DelayStoreAt(trace.InstrID(i + 1))
			}
		}
		for i := 0; i < count; i++ {
			w.Store(trace.InstrID(i+1), addrX+trace.Addr(i*8), 1, trace.Plain)
			w.Barrier(trace.BarrierStore)
		}
		// All stores must be committed: each was followed by a wmb.
		for i := 0; i < count; i++ {
			if mem.Read(addrX+trace.Addr(i*8)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyVersionedLoadReturnsSomeHistoricValue: a versioned load
// always returns a value the location actually held at some point within
// the versioning window (never an invented value).
func TestPropertyVersionedLoadReturnsSomeHistoricValue(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) > 10 {
			vals = vals[:10]
		}
		_, ths, _ := env(2)
		w, r := ths[0], ths[1]
		valid := map[uint64]bool{0: true} // initial value
		for i, v := range vals {
			w.Store(trace.InstrID(i+1), addrX, v, trace.Plain)
			valid[v] = true
		}
		r.Dir.ReadOldValueAt(99)
		got := r.Load(99, addrX, trace.Plain)
		return valid[got]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCoRRCoherence: per-location read-read coherence — once a thread has
// observed a value, a later (even versioned) load of the SAME location may
// never return an older version. All architectures, Alpha included,
// preserve po-loc coherence.
func TestCoRRCoherence(t *testing.T) {
	_, ths, _ := env(2)
	w, r := ths[0], ths[1]
	w.Store(1, addrX, 1, trace.Plain)
	w.Store(2, addrX, 2, trace.Plain)
	r.Dir.ReadOldValueAt(4)
	first := r.Load(3, addrX, trace.Plain) // reads 2 (memory)
	second := r.Load(4, addrX, trace.Plain)
	if first != 2 || second != 2 {
		t.Fatalf("CoRR violated: first=%d second=%d (second must not be older)", first, second)
	}
}

// TestCoRRAfterVersionedRead: the floor also holds between two versioned
// loads — versions may only move forward.
func TestCoRRAfterVersionedRead(t *testing.T) {
	_, ths, _ := env(2)
	w, r := ths[0], ths[1]
	w.Store(1, addrX, 1, trace.Plain) // t1: 0 -> 1
	w.Store(2, addrX, 2, trace.Plain) // t2: 1 -> 2
	w.Store(3, addrX, 3, trace.Plain) // t3: 2 -> 3
	r.Dir.ReadOldValueAt(4)
	r.Dir.ReadOldValueAt(5)
	v1 := r.Load(4, addrX, trace.Plain) // oldest in window: 0
	v2 := r.Load(5, addrX, trace.Plain) // must be >= v1's version: 0 again? No:
	// v1 observed version time 0 (initial); a second versioned load may
	// observe the same or a newer version, never an older one.
	if v1 != 0 {
		t.Fatalf("first versioned load: got %d, want 0", v1)
	}
	if v2 == 3 || v2 == 0 {
		// Reading the same version (0) again or any newer one is
		// acceptable; just assert it is a real historic value.
	}
	valid := map[uint64]bool{0: true, 1: true, 2: true, 3: true}
	if !valid[v2] {
		t.Fatalf("second versioned load returned invented value %d", v2)
	}
}

// TestHistoryEviction: the per-location store history is bounded; evicting
// old entries only narrows what versioned loads can observe (conservative),
// never invents values.
func TestHistoryEviction(t *testing.T) {
	_, ths, _ := env(2)
	w, r := ths[0], ths[1]
	const writes = historyCapPerAddr + 50
	for i := 1; i <= writes; i++ {
		w.Store(1, addrX, uint64(i), trace.Plain)
	}
	r.Dir.ReadOldValueAt(2)
	got := r.Load(2, addrX, trace.Plain)
	// The oldest reachable version is bounded by the cap: values below
	// writes-historyCapPerAddr were evicted.
	if got < uint64(writes-historyCapPerAddr) || got > uint64(writes) {
		t.Fatalf("versioned load returned %d, outside the retained window", got)
	}
}

// TestHistRingGrowth: a ring starts small, doubles while full, and keeps
// exactly the newest historyCapPerAddr entries in commit order, whatever
// the commit count.
func TestHistRingGrowth(t *testing.T) {
	for _, n := range []int{1, historyMinPerAddr, historyMinPerAddr + 1, 50, historyCapPerAddr, historyCapPerAddr + 1, 3*historyCapPerAddr + 7} {
		var r histRing
		r.entries = make([]histEntry, historyMinPerAddr)
		for i := 1; i <= n; i++ {
			r.push(histEntry{time: uint64(i)})
		}
		size := historyMinPerAddr
		for size < n && size < historyCapPerAddr {
			size *= 2
		}
		if len(r.entries) != size {
			t.Fatalf("%d commits: ring of %d entries, want %d", n, len(r.entries), size)
		}
		kept := min(n, historyCapPerAddr)
		if int(r.n) != kept {
			t.Fatalf("%d commits: %d entries kept, want %d", n, r.n, kept)
		}
		for k := 0; k < kept; k++ {
			if got, want := r.at(k).time, uint64(n-kept+k+1); got != want {
				t.Fatalf("%d commits: entry %d = %d, want %d", n, k, got, want)
			}
		}
	}
}

// TestPerThreadBuffersIndependent: one thread's delayed stores never leak
// into another thread's buffer or forwarding path.
func TestPerThreadBuffersIndependent(t *testing.T) {
	_, ths, _ := env(2)
	a, b := ths[0], ths[1]
	a.Dir.DelayStoreAt(1)
	a.Store(1, addrX, 7, trace.Plain)
	if len(b.sb) != 0 {
		t.Fatal("buffer leaked across threads")
	}
	if got := b.Load(2, addrX, trace.Plain); got != 0 {
		t.Fatalf("forwarding leaked across threads: %d", got)
	}
	b.Flush() // no-op
	if got := b.Load(3, addrX, trace.Plain); got != 0 {
		t.Fatalf("foreign flush committed the delayed store: %d", got)
	}
}
