// Package oemu implements OEMU, the in-vivo out-of-order execution emulator
// of the paper (§3). It reorders memory accesses of the simulated kernel
// explicitly and deterministically using two mechanisms:
//
//   - Delayed store operations (§3.1): a per-thread virtual store buffer
//     holds the value of a store back from memory until a store/full/release
//     barrier or an interrupt, emulating store-store and store-load
//     reordering. Loads by the same thread are forwarded from the buffer.
//
//   - Versioned load operations (§3.2): a global store history records how
//     each location's value changed over time; a per-thread versioning
//     window (t_rmb, t_cur] bounds how stale a value a versioned load may
//     observe, emulating load-load reordering.
//
// A userspace program (the fuzzer) selects which instruction sites reorder
// through the two directives of Table 2: DelayStoreAt and ReadOldValueAt.
// Absent directives, OEMU executes in order. Reordering complies with the
// Linux Kernel Memory Model's seven preserved-program-order cases (§3.3,
// §10.1); see the package tests and internal/lkmm for the compliance suite.
//
// The per-address bookkeeping (store history, per-thread coherence stamps)
// is arena-based: addresses are interned into dense indices, history lives
// in fixed-capacity rings recycled across Reset, and per-thread stamps are
// dense slices cleared in place — so a recycled emulator executes a
// no-directive run without allocating.
package oemu

import (
	"slices"

	"ozz/internal/kmem"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// historyCapPerAddr bounds the per-location store history. Entries beyond
// the cap are evicted oldest-first; evicting limits how far back a versioned
// load can reach, which only makes emulation more conservative. Must be a
// power of two: the ring index math masks with historyCapPerAddr-1.
const historyCapPerAddr = 128

// historyMinPerAddr is the entry count a location's store history starts
// with; it doubles on demand up to historyCapPerAddr. Most locations see a
// few commits per run, and a recycled kernel keeps every ring it built.
const historyMinPerAddr = 8

// internCap bounds the persistent address-intern table. Interned addresses
// recur across recycled runs (the simulated allocator hands out the same
// address ranges after every Reset), so the table normally stabilizes at
// the campaign's working-set size; the cap is a backstop against unbounded
// growth under adversarial address churn.
const internCap = 1 << 14

// Directives is the per-thread reordering plan, set through the Table 2
// interfaces before a test run. Instruction sites added via DelayStoreAt
// have their store operations delayed in the virtual store buffer; sites
// added via ReadOldValueAt have their load operations read an old value
// from the store history (subject to the versioning window).
//
// Ownership: a Directives value is owned by its Thread, which clears it
// in place when the thread is recycled. The site sets are sorted slices
// mutated through the pointer-receiver methods; copying the struct by
// value shares the underlying arrays and must not be combined with
// further mutation — use the owning Thread's Dir field (which is
// addressable), never a copy.
type Directives struct {
	// delayStore/readOld are the site sets, sorted ascending,
	// deduplicated.
	delayStore []trace.InstrID
	readOld    []trace.InstrID

	// em, when the Directives belong to a Thread, lets ReadOldValueAt arm
	// store-history tracking on the owning emulator (nil for a standalone
	// zero value).
	em *OEMU
}

// insertSorted adds i to the sorted set s if absent.
func insertSorted(s []trace.InstrID, i trace.InstrID) []trace.InstrID {
	lo := 0
	for lo < len(s) && s[lo] < i {
		lo++
	}
	if lo < len(s) && s[lo] == i {
		return s
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = i
	return s
}

// containsSorted reports membership in a sorted site set. The sets are tiny
// (one to a handful of sites), so a linear scan beats hashing.
func containsSorted(s []trace.InstrID, i trace.InstrID) bool {
	for _, v := range s {
		if v >= i {
			return v == i
		}
	}
	return false
}

// DelayStoreAt requests that stores executed by instruction site i be
// delayed (Table 2: delay_store_at).
func (d *Directives) DelayStoreAt(i trace.InstrID) {
	d.delayStore = insertSorted(d.delayStore, i)
}

// ReadOldValueAt requests that loads executed by instruction site i read an
// old value (Table 2: read_old_value_at). On a Thread whose emulator has
// store-history tracking disabled, this re-enables it conservatively: the
// history is recorded from this point on, and versioned loads cannot reach
// past it.
func (d *Directives) ReadOldValueAt(i trace.InstrID) {
	d.readOld = insertSorted(d.readOld, i)
	if d.em != nil && d.em.mm.AnyVersionable() {
		d.em.armHistory()
	}
}

// hasDelay reports whether stores at site i are directed to delay.
func (d *Directives) hasDelay(i trace.InstrID) bool { return containsSorted(d.delayStore, i) }

// hasReadOld reports whether loads at site i are directed to version.
func (d *Directives) hasReadOld(i trace.InstrID) bool { return containsSorted(d.readOld, i) }

// reset clears the directive sets in place.
func (d *Directives) reset() {
	d.delayStore = d.delayStore[:0]
	d.readOld = d.readOld[:0]
}

// histEntry records one committed store: the value it overwrote and the
// commit timestamp.
type histEntry struct {
	old, time uint64
}

// histRing is the per-location store history: a ring of the most recent
// historyCapPerAddr commits, overwritten oldest-first in place. The entry
// array is allocated on a location's first commit with historyMinPerAddr
// entries, doubles while the ring is full and below the cap, and is
// retained across Reset, so recycled runs record history without
// allocating.
type histRing struct {
	entries []histEntry // nil until first commit; len a power of two <= historyCapPerAddr
	start   int32       // index of the oldest entry
	n       int32
}

// push appends a commit, evicting the oldest entry once the ring is full
// at the cap.
func (r *histRing) push(e histEntry) {
	size := len(r.entries)
	if int(r.n) == size && size < historyCapPerAddr {
		r.grow()
		size *= 2
	}
	if int(r.n) < size {
		r.entries[(int(r.start)+int(r.n))&(size-1)] = e
		r.n++
		return
	}
	r.entries[r.start] = e
	r.start = (r.start + 1) & int32(size-1)
}

// grow doubles the entry array, moving the entries to its front in order.
func (r *histRing) grow() {
	bigger := make([]histEntry, 2*len(r.entries))
	for k := range int(r.n) {
		bigger[k] = r.at(k)
	}
	r.entries, r.start = bigger, 0
}

// at returns the k-th entry, oldest first (0 <= k < n).
func (r *histRing) at(k int) histEntry {
	return r.entries[(int(r.start)+k)&(len(r.entries)-1)]
}

// pendingStore is one in-flight entry of a virtual store buffer.
type pendingStore struct {
	addr trace.Addr
	val  uint64
}

// Thread is the per-thread OEMU state: the virtual store buffer, the
// versioning window and the directives.
type Thread struct {
	Dir Directives

	// sb is the virtual store buffer. It holds at most one entry per
	// location (coalescing preserves per-location program order) and is
	// tiny — bounded by the delayed-store sites of one system call — so
	// membership is a linear scan rather than a side index.
	sb []pendingStore

	// tRmb is the start of the versioning window: the logical time of the
	// most recent load/full/acquire barrier (or annotated load) executed
	// by this thread. Versioned loads may only observe values the
	// location held after tRmb.
	tRmb uint64

	// lastCommit records, per interned location, the time of this thread's
	// own most recent committed store. A versioned load must never observe
	// a value older than the thread's own committed store to the same
	// location (per-location coherence; the store-buffer priority rule of
	// §3.2 generalized to already-committed stores). Indexed by the
	// emulator's dense address index; maintained only while store-history
	// tracking is on (it is only consulted by versioned loads).
	lastCommit stamps

	// seen records, per interned location, the version time of the value
	// this thread most recently READ from the location. Per-location
	// read-read coherence (CoRR — preserved even on Alpha) forbids a later
	// load of the same location from observing an older version, so
	// versioned loads floor their window at it. Same indexing and tracking
	// regime as lastCommit.
	seen stamps

	em *OEMU
}

// at reads a dense-indexed stamp, treating missing tail entries as zero.
func (s stamps) at(idx int32) uint64 {
	if int(idx) < len(s) {
		return s[idx]
	}
	return 0
}

// set writes a dense-indexed stamp, growing the slice with zero stamps to
// cover idx. A thread's reset truncates its stamps, so a run pays only for
// the locations it stamps, and the backing array is reallocated only while
// the emulator's intern set is still expanding.
func (s stamps) set(idx int32, v uint64) stamps {
	if n := int(idx) + 1; n > len(s) {
		old := len(s)
		s = slices.Grow(s, n-old)[:n]
		clear(s[old:])
	}
	s[idx] = v
	return s
}

// stamps is a dense-indexed per-location timestamp vector.
type stamps []uint64

// Counters is the per-execution OEMU activity tally (§3 mechanisms made
// visible). Fields are plain uint64s — OEMU is driven by exactly one
// running thread at a time, so no atomics are needed. All fields except
// the arena block are deterministic for a given (program, hint, seed): the
// same run always produces the same counts. The arena fields (Threads*/
// HistRings*) depend on whether the emulator was recycled or fresh, so
// they are observability-only. The engine harvests the whole struct into
// the campaign metrics registry after each execution.
type Counters struct {
	// StoresDelayed counts stores held in a virtual store buffer (§3.1).
	StoresDelayed uint64
	// ForwardedLoads counts loads satisfied by store-to-load forwarding
	// from the local buffer.
	ForwardedLoads uint64
	// VersionedLoads counts loads that observed an old value from the
	// store history (§3.2).
	VersionedLoads uint64
	// StoresCommitted counts stores written through to memory (including
	// delayed stores at their eventual flush).
	StoresCommitted uint64
	// FlushSmpWmb counts store-buffer drains caused by a store barrier
	// (smp_wmb). Only non-empty drains are counted, for every Flush* field.
	FlushSmpWmb uint64
	// FlushSmpMb counts drains caused by a full barrier (smp_mb).
	FlushSmpMb uint64
	// FlushRelease counts drains caused by release semantics
	// (smp_store_release, clear_bit_unlock, or a release barrier).
	FlushRelease uint64
	// FlushInterrupt counts drains caused by an interrupt (§3.1).
	FlushInterrupt uint64
	// FlushSyscall counts drains at syscall exit (the in-vivo boundary
	// past which a real store buffer cannot hold a store).
	FlushSyscall uint64
	// FlushPPO counts drains forced by the active memory model's
	// preserved-program-order rules — under a FIFO store buffer (x86-TSO)
	// a store that cannot be delayed must not overtake older buffered
	// stores, and a second store to a buffered location must not coalesce.
	// Always zero under LKMM/ARMv8 (their buffers are unordered).
	FlushPPO uint64
	// LoadWindowAdvances counts versioning-window starts moving forward
	// (load/full/acquire barriers and annotated loads, when the clock has
	// advanced since the last window start).
	LoadWindowAdvances uint64

	// ThreadsRecycled counts NewThread acquisitions served from the
	// retired-thread freelist since the last Reset (arena tally,
	// recycling-dependent, not run-deterministic).
	ThreadsRecycled uint64
	// ThreadsBuilt counts NewThread acquisitions that allocated a fresh
	// Thread struct.
	ThreadsBuilt uint64
	// HistRingsRecycled counts store-history rings activated this run
	// whose entry array was retained from an earlier run.
	HistRingsRecycled uint64
	// HistRingsBuilt counts store-history rings whose entry array was
	// allocated fresh this run.
	HistRingsBuilt uint64
}

// OEMU is the emulator instance shared by all threads of one simulated
// kernel: the global logical clock, the store history, and the backing
// memory. It is driven by exactly one running thread at a time (the
// deterministic scheduler guarantees this), so it needs no locking.
type OEMU struct {
	Mem   *kmem.Memory
	clock uint64

	// mm is the active memory model's compiled semantics table. Every
	// barrier/atomicity ordering decision dispatches through it — dense
	// array loads, no per-op interface calls (see internal/memmodel). It
	// defaults to LKMM and is restored to LKMM by Reset, so recycled
	// emulators behave like New unless the engine re-selects a model.
	mm *memmodel.Table

	// trackHistory selects whether commits are recorded into the store
	// history (and coherence stamps maintained). It is on by default —
	// a fresh or reset emulator behaves exactly like the paper's — and
	// an executor that knows a run installs no versioned-load directive
	// may turn it off (SetHistoryTracking) to skip the bookkeeping, which
	// is unobservable without such directives.
	trackHistory bool
	// armFloor is the clock value at which history tracking was (re)armed
	// mid-run; versioned loads cannot observe values from before it (the
	// history before arming was never recorded). Zero when tracking has
	// been on since the run started.
	armFloor uint64

	// addrIndex interns accessed addresses into dense indices. It persists
	// across Reset — the simulated allocator reuses the same address
	// ranges run after run — so steady-state runs do no map inserts.
	addrIndex map[trace.Addr]int32
	// addrs maps dense index back to address (diagnostics, cap clearing).
	addrs []trace.Addr
	// hist holds the per-location store-history rings, dense-indexed.
	// Entry arrays are allocated on first use and retained across Reset.
	hist []histRing
	// histTouched lists the dense indices whose ring recorded at least one
	// commit since the last Reset, so Reset clears O(touched) rings.
	histTouched []int32

	threads []*Thread
	// free holds retired Thread structs (with their slice storage) for
	// reuse by NewThread after a Reset, cutting per-execution allocation
	// churn.
	free []*Thread

	// n tallies emulation activity since the last Reset.
	n Counters
}

// Counters returns the activity tally accumulated since the last Reset.
func (em *OEMU) Counters() Counters { return em.n }

// New returns an emulator over the given memory, running the default LKMM
// semantics.
func New(mem *kmem.Memory) *OEMU {
	return NewModel(mem, memmodel.LKMM)
}

// NewModel returns an emulator over the given memory running the given
// memory model (nil selects LKMM).
func NewModel(mem *kmem.Memory, mm *memmodel.Table) *OEMU {
	if mm == nil {
		mm = memmodel.LKMM
	}
	return &OEMU{
		Mem:          mem,
		mm:           mm,
		trackHistory: true,
		addrIndex:    make(map[trace.Addr]int32),
	}
}

// SetModel switches the active memory model (nil selects LKMM). Call it
// between runs, before the emulator executes accesses — switching models
// mid-run would mix semantics within one execution.
func (em *OEMU) SetModel(mm *memmodel.Table) {
	if mm == nil {
		mm = memmodel.LKMM
	}
	em.mm = mm
}

// Model returns the active memory model's semantics table.
func (em *OEMU) Model() *memmodel.Table { return em.mm }

// SetHistoryTracking turns store-history recording on or off. Tracking is
// on by default. Turning it off is a pure optimization valid only for runs
// that execute no versioned loads (no ReadOldValueAt directive): without
// such loads the history, and the per-thread coherence stamps it feeds,
// are unobservable. Call it before the run executes accesses; a
// ReadOldValueAt directive re-enables tracking conservatively (versioned loads then cannot reach past the
// re-enable point, because no earlier history exists).
func (em *OEMU) SetHistoryTracking(on bool) {
	if on {
		em.armHistory()
		return
	}
	em.trackHistory = false
}

// armHistory enables history tracking, flooring versioned loads at the
// current clock when enabling mid-run (values committed while tracking was
// off were never recorded and can no longer be observed).
func (em *OEMU) armHistory() {
	if em.trackHistory {
		return
	}
	em.trackHistory = true
	em.armFloor = em.clock
}

// addrOf interns an address into its dense index, growing the per-address
// tables on first sight.
func (em *OEMU) addrOf(addr trace.Addr) int32 {
	if idx, ok := em.addrIndex[addr]; ok {
		return idx
	}
	if len(em.addrs) >= internCap {
		em.clearIntern()
	}
	idx := int32(len(em.addrs))
	em.addrIndex[addr] = idx
	em.addrs = append(em.addrs, addr)
	em.hist = append(em.hist, histRing{})
	return idx
}

// clearIntern drops the intern table and everything indexed by it (the cap
// backstop; steady-state campaigns never hit it). Thread stamps keyed by
// the old indices are cleared too.
func (em *OEMU) clearIntern() {
	clear(em.addrIndex)
	em.addrs = em.addrs[:0]
	em.hist = em.hist[:0]
	em.histTouched = em.histTouched[:0]
	for _, t := range em.threads {
		clear(t.lastCommit)
		clear(t.seen)
	}
	for _, t := range em.free {
		clear(t.lastCommit)
		clear(t.seen)
	}
}

// NewThread registers a new emulated hardware thread, reusing a retired
// Thread (and its slice storage) when one is available.
func (em *OEMU) NewThread() *Thread {
	if n := len(em.free); n > 0 {
		t := em.free[n-1]
		em.free[n-1] = nil
		em.free = em.free[:n-1]
		em.threads = append(em.threads, t)
		em.n.ThreadsRecycled++
		return t
	}
	t := &Thread{em: em}
	t.Dir.em = em
	em.threads = append(em.threads, t)
	em.n.ThreadsBuilt++
	return t
}

// Reset returns the emulator to its freshly-constructed state — clock at
// zero, empty store history, tracking on, no registered threads — while
// retiring the current Thread structs into a freelist and keeping ring
// entry arrays attached to their interned locations for reuse. A reset
// OEMU behaves identically to New over a reset Memory.
func (em *OEMU) Reset() {
	em.clock = 0
	em.n = Counters{}
	em.trackHistory = true
	em.armFloor = 0
	em.mm = memmodel.LKMM
	for _, idx := range em.histTouched {
		r := &em.hist[idx]
		r.start = 0
		r.n = 0
	}
	em.histTouched = em.histTouched[:0]
	for _, t := range em.threads {
		t.reset()
		em.free = append(em.free, t)
	}
	em.threads = em.threads[:0]
}

// reset clears all per-thread emulation state while keeping slice storage
// for reuse.
func (t *Thread) reset() {
	t.Dir.reset()
	t.sb = t.sb[:0]
	t.tRmb = 0
	t.lastCommit, t.seen = t.lastCommit[:0], t.seen[:0]
}

// Now returns the current logical time. The clock advances on every commit.
func (em *OEMU) Now() uint64 { return em.clock }

// commit writes a value to memory, advances the clock, and — while history
// tracking is on — records the transition in the store history and stamps
// the thread's own-store coherence floor.
func (em *OEMU) commit(t *Thread, addr trace.Addr, val uint64) {
	if !em.trackHistory {
		em.Mem.Write(addr, val)
		em.clock++
		em.n.StoresCommitted++
		return
	}
	old := em.Mem.Read(addr)
	em.Mem.Write(addr, val)
	em.clock++
	idx := em.addrOf(addr)
	r := &em.hist[idx]
	if r.n == 0 && r.start == 0 {
		if r.entries == nil {
			r.entries = make([]histEntry, historyMinPerAddr)
			em.n.HistRingsBuilt++
		} else {
			em.n.HistRingsRecycled++
		}
		em.histTouched = append(em.histTouched, idx)
	}
	r.push(histEntry{old: old, time: em.clock})
	t.lastCommit = t.lastCommit.set(idx, em.clock)
	em.n.StoresCommitted++
}

// oldValue returns the value location addr held at the start of the window
// (after, i.e. strictly newer than, logical time floor) together with that
// value's version time (the commit time of the store that wrote it, 0 for
// the initial value), or ok=false when no store to addr committed after
// floor — in which case the current memory value is already the
// window-start value.
func (em *OEMU) oldValue(idx int32, floor uint64) (val, versionTime uint64, ok bool) {
	r := &em.hist[idx]
	var prevTime uint64
	for k := 0; k < int(r.n); k++ {
		e := r.at(k)
		if e.time > floor {
			return e.old, prevTime, true
		}
		prevTime = e.time
	}
	return 0, 0, false
}

// latestTime returns the commit time of the newest store to the interned
// location (0 if it was never stored to through OEMU).
func (em *OEMU) latestTime(idx int32) uint64 {
	r := &em.hist[idx]
	if r.n == 0 {
		return 0
	}
	return r.at(int(r.n) - 1).time
}

// Store executes a store operation at instruction site instr. Release
// semantics (per the active memory model) flush the store buffer first
// (LKMM Case 5). If the site is directed to delay — and the model permits
// delaying this annotation — the value is held in the virtual store buffer
// instead of being committed (§3.1). Under a store-store-ordered model
// (x86-TSO) the buffer is FIFO: no coalescing, and a store that commits
// now must drain older buffered stores first so visibility order matches
// program order.
func (t *Thread) Store(instr trace.InstrID, addr trace.Addr, val uint64, atom trace.Atomicity) {
	em := t.em
	mm := em.mm
	if mm.Release(atom) {
		// smp_store_release / clear_bit_unlock: all precedent accesses
		// complete before this store (flush acts as smp_wmb; precedent
		// loads already executed in place as OEMU never delays loads).
		t.flush(&em.n.FlushRelease)
	}
	if mm.StoreStoreOrdered() {
		// FIFO store buffer. Coalescing into a non-newest entry would
		// publish this value before a program-earlier buffered store to
		// another location; drain instead when the location is pending.
		if _, pending := t.PendingAt(addr); pending {
			t.flush(&em.n.FlushPPO)
		}
		if t.Dir.hasDelay(instr) && mm.Delayable(atom) {
			t.sb = append(t.sb, pendingStore{addr: addr, val: val})
			em.n.StoresDelayed++
			return
		}
		if len(t.sb) > 0 {
			// Committing now would overtake older buffered stores.
			t.flush(&em.n.FlushPPO)
		}
		em.commit(t, addr, val)
		return
	}
	for i := range t.sb {
		if t.sb[i].addr == addr {
			// A delayed store to this location is already in flight.
			// Coalesce: overwrite its value in place, preserving
			// per-location program order (coherence). The intermediate
			// value never becomes visible, which a real store buffer
			// also permits.
			t.sb[i].val = val
			return
		}
	}
	if t.Dir.hasDelay(instr) && mm.Delayable(atom) {
		t.sb = append(t.sb, pendingStore{addr: addr, val: val})
		em.n.StoresDelayed++
		return
	}
	em.commit(t, addr, val)
}

// Load executes a load operation at instruction site instr and returns the
// value observed. Resolution order (§3.1/§3.2): local store buffer
// (store-to-load forwarding) first, then — if directed — an old value from
// the store history bounded by the versioning window, then memory.
//
// After the load, annotated loads (READ_ONCE, atomics, acquire) advance the
// versioning window: the LKMM treats them as a load barrier for subsequent
// loads (Cases 4 and 6; §3.2 "Dependencies from a load operation").
func (t *Thread) Load(instr trace.InstrID, addr trace.Addr, atom trace.Atomicity) uint64 {
	em := t.em
	var val uint64
	switch {
	case t.forwardedVal(addr, &val):
		em.n.ForwardedLoads++
	case em.trackHistory && em.mm.Versionable(atom) && t.Dir.hasReadOld(instr):
		idx := em.addrOf(addr)
		// The versioning window floor: the last load barrier, but never
		// older than the thread's own committed store to the location,
		// nor than the version it has already observed there (CoRR:
		// per-location read-read coherence holds on every architecture,
		// Alpha included), nor than the point history tracking was armed.
		floor := t.tRmb
		if lc := t.lastCommit.at(idx); lc > floor {
			floor = lc
		}
		if sv := t.seen.at(idx); sv > floor {
			floor = sv
		}
		if em.armFloor > floor {
			floor = em.armFloor
		}
		if old, vt, ok := em.oldValue(idx, floor); ok {
			val = old
			t.seen = t.seen.set(idx, vt)
			em.n.VersionedLoads++
		} else {
			val = em.Mem.Read(addr)
			t.seen = t.seen.set(idx, em.latestTime(idx))
		}
	default:
		val = em.Mem.Read(addr)
		if em.trackHistory {
			idx := em.addrOf(addr)
			t.seen = t.seen.set(idx, em.latestTime(idx))
		}
	}
	if em.mm.LoadBarrier(atom) {
		// A load the model treats as a load barrier (LKMM Cases 4 and 6;
		// only acquire under ARMv8): subsequent loads must not observe
		// values older than this point.
		t.advanceWindow()
	}
	return val
}

// advanceWindow moves the versioning-window start to now, counting the
// advance when the window actually moves.
func (t *Thread) advanceWindow() {
	if t.em.clock > t.tRmb {
		t.em.n.LoadWindowAdvances++
	}
	t.tRmb = t.em.clock
}

// Barrier executes a memory barrier (Table 1). Store-ordering barriers flush
// the virtual store buffer (no store may be delayed across them); load-
// ordering barriers advance the versioning window (no later load may read a
// value older than the barrier point).
func (t *Thread) Barrier(kind trace.BarrierKind) {
	mm := t.em.mm
	if mm.OrdersStores(kind) {
		t.flush(t.flushCauseCounter(kind))
	}
	if mm.OrdersLoads(kind) {
		t.advanceWindow()
	}
}

// flushCauseCounter maps a store-ordering barrier kind to the Counters
// field that tallies the drain it causes.
func (t *Thread) flushCauseCounter(kind trace.BarrierKind) *uint64 {
	n := &t.em.n
	switch kind {
	case trace.BarrierStore:
		return &n.FlushSmpWmb
	case trace.BarrierRelease:
		return &n.FlushRelease
	default: // full barrier (smp_mb) and anything else that orders stores
		return &n.FlushSmpMb
	}
}

// Interrupt models an interrupt on the processor running this thread, which
// drains the virtual store buffer (§3.1).
func (t *Thread) Interrupt() { t.flush(&t.em.n.FlushInterrupt) }

// FlushAtSyscallExit drains the virtual store buffer at the syscall
// boundary (§3.1: a real store buffer cannot hold a store past the return
// to userspace), attributing the drain to the syscall-exit cause.
func (t *Thread) FlushAtSyscallExit() { t.flush(&t.em.n.FlushSyscall) }

// flush drains the store buffer, incrementing cause only when the drain
// actually committed something (an empty flush is not an event).
func (t *Thread) flush(cause *uint64) {
	if len(t.sb) > 0 {
		*cause++
	}
	t.Flush()
}

// Flush commits all delayed stores, in their original program order.
func (t *Thread) Flush() {
	for _, p := range t.sb {
		t.em.commit(t, p.addr, p.val)
	}
	t.sb = t.sb[:0]
}

// PendingAt reports whether a delayed store to addr is in flight and, if so,
// its held value.
func (t *Thread) PendingAt(addr trace.Addr) (uint64, bool) {
	for i := range t.sb {
		if t.sb[i].addr == addr {
			return t.sb[i].val, true
		}
	}
	return 0, false
}

// forwardedVal reports whether a delayed store to addr is in flight,
// storing its held value through val.
func (t *Thread) forwardedVal(addr trace.Addr, val *uint64) bool {
	for i := range t.sb {
		if t.sb[i].addr == addr {
			*val = t.sb[i].val
			return true
		}
	}
	return false
}
