// Package model is an executable reference checker for the LKMM fragment
// OZZ emulates (§3.1–§3.3, §10.1): it enumerates every outcome the model
// permits for a litmus test, independently of internal/oemu. Where
// internal/lkmm drives the real OEMU emulator through the product of
// thread interleavings and Table 2 directive masks, this package explores
// an abstract machine directly — a small-step transition system over
// per-thread store-buffer and versioning states — deduplicating visited
// states, so a regression in OEMU's mechanics shows up as an outcome-set
// divergence in the differential harness (internal/lkmm/diff) even on
// shapes no hand-written test names.
//
// The machine encodes the memory-model axioms as transition rules:
//
//   - Store buffering (§3.1): a store either commits in place or enters
//     the thread's virtual store buffer, to commit at the next drain
//     point. Drain points are exactly the preserved-program-order store
//     cases of §10.1 — smp_wmb (Case 2), smp_mb (Case 1), and release
//     semantics (Case 5) — plus thread exit (the syscall boundary).
//   - SC per location: same-location stores stay in program order (an
//     in-flight buffered store coalesces, CoWW); loads from a location
//     the thread has a buffered store to must forward it (CoWR); a load
//     never observes a version older than one the thread already
//     observed (CoRR) or than the thread's own last commit to the
//     location.
//   - Versioned loads (§3.2): a load observes either the current value
//     or the value the location held at the start of the thread's
//     versioning window. The window is pinned by smp_rmb (Case 3),
//     smp_mb (Case 1), acquire semantics (Case 4), and annotated loads
//     (READ_ONCE/atomic — the dependency rule, Case 6).
//   - Loads execute in place — load-store reordering is never emulated
//     (Case 7 and §3's scope), so the LB outcome is structurally
//     unreachable.
//
// The barrier and annotation semantics come from the active
// memmodel.Table — the same compiled table OEMU and Algorithm 1's
// hypothetical-barrier grouping (hints.TestKind closure) dispatch through
// — so all three layers agree on the PPO cases by construction; what the
// differential harness then checks is that the *mechanics* around those
// predicates agree too. RunModel explores the machine under any
// registered model: store delayability/release and load
// versionability/window pins are read from the table, and a
// store-store-ordered model (x86-TSO) switches the buffer to FIFO
// discipline — no coalescing, and in-place commits drain the buffer
// first, exactly mirroring the emulator's rules.
package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
)

// Result is the set of outcomes the reference model permits for a test.
type Result struct {
	// Outcomes maps each reachable final register assignment to true.
	Outcomes map[lkmm.Outcome]bool
	// States counts distinct abstract-machine states visited.
	States int
}

// Has reports whether the outcome is permitted.
func (r *Result) Has(o lkmm.Outcome) bool { return r.Outcomes[o] }

// Sorted lists the permitted outcomes canonically.
func (r *Result) Sorted() []string {
	out := make([]string, 0, len(r.Outcomes))
	for o := range r.Outcomes {
		out = append(out, string(o))
	}
	sort.Strings(out)
	return out
}

// version is one committed value of a location: the logical commit time
// and the value written. The commit history per location is the model's
// coherence order; versioned loads pick from it.
type version struct {
	time uint64
	val  uint64
}

// pendingStore is one in-flight entry of a thread's virtual store buffer.
type pendingStore struct {
	loc int
	val uint64
}

// state is one abstract machine configuration. All slices are dense and
// fixed-shape for a given test (locations and threads are indexes), which
// keys canonically for the visited-state set.
type state struct {
	clock uint64
	// hist is the per-location commit history in coherence order; the
	// initial value 0 at time 0 is implicit. Every state owns its
	// histories' backing arrays: copyFrom copies them, never aliases.
	hist [][]version
	// pc is each thread's next-op index.
	pc []int
	// sb is each thread's virtual store buffer, program order, at most
	// one entry per location (coalescing).
	sb [][]pendingStore
	// slab backs tRmb, lastCommit, seen and regs, so copyFrom copies them
	// with one copy.
	slab []uint64
	// tRmb is each thread's versioning-window start (§3.2).
	tRmb []uint64
	// lastCommit[at(t, loc)] is the commit time of thread t's own newest
	// committed store to loc (CoWR floor), 0 if none.
	lastCommit []uint64
	// seen[at(t, loc)] is the version time thread t most recently
	// observed at loc (CoRR floor), 0 if none.
	seen []uint64
	// regs is the global register file (loads write it).
	regs []uint64
}

// newStates allocates n states for test t, carving their storage from
// one backing array per field. Each history and store buffer gets a window
// as large as it can grow in this test — one entry per store to the
// location, one per store of the thread — so neither copyFrom nor the
// transition rules ever reallocate them.
func newStates(t *lkmm.Test, n int) []state {
	threads, locs := len(t.Threads), t.NumLocs
	histCap := make([]int, locs)
	sbCap := make([]int, threads)
	stores := 0
	for ti, ops := range t.Threads {
		for _, op := range ops {
			if op.Kind == lkmm.OpStore {
				histCap[op.Loc]++
				sbCap[ti]++
				stores++
			}
		}
	}
	slabLen := threads + 2*threads*locs + t.NumRegs
	states := make([]state, n)
	hists := make([][]version, n*locs)
	sbs := make([][]pendingStore, n*threads)
	versions := make([]version, n*stores)
	pending := make([]pendingStore, n*stores)
	pcs := make([]int, n*threads)
	slab := make([]uint64, n*slabLen)
	for i := range states {
		s := &states[i]
		s.hist, hists = hists[:locs:locs], hists[locs:]
		for l, c := range histCap {
			s.hist[l], versions = versions[:0:c], versions[c:]
		}
		s.sb, sbs = sbs[:threads:threads], sbs[threads:]
		for ti, c := range sbCap {
			s.sb[ti], pending = pending[:0:c], pending[c:]
		}
		s.pc, pcs = pcs[:threads:threads], pcs[threads:]
		s.slab, slab = slab[:slabLen:slabLen], slab[slabLen:]
		s.carve()
	}
	return states
}

// carve points tRmb, lastCommit, seen and regs at their windows of slab.
func (s *state) carve() {
	n, tl := len(s.pc), len(s.pc)*len(s.hist)
	s.tRmb = s.slab[:n:n]
	s.lastCommit = s.slab[n : n+tl : n+tl]
	s.seen = s.slab[n+tl : n+2*tl : n+2*tl]
	s.regs = s.slab[n+2*tl:]
}

// at indexes thread t's entry for loc in lastCommit and seen.
func (s *state) at(t, loc int) int { return t*len(s.hist) + loc }

// copyFrom overwrites s, a state of the same test, with src. It copies
// into the storage s owns, so it allocates nothing.
func (s *state) copyFrom(src *state) {
	s.clock = src.clock
	copy(s.pc, src.pc)
	copy(s.slab, src.slab)
	for i, h := range src.hist {
		s.hist[i] = append(s.hist[i][:0], h...)
	}
	for i, b := range src.sb {
		s.sb[i] = append(s.sb[i][:0], b...)
	}
}

// appendKey appends the state's canonical binary encoding to b for the
// visited set. Every field is a uvarint; the variable-length hist and sb
// entries carry length prefixes and everything else has a fixed count for
// a given test, so the encoding is injective.
func (s *state) appendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, s.clock)
	for _, h := range s.hist {
		b = binary.AppendUvarint(b, uint64(len(h)))
		for _, v := range h {
			b = binary.AppendUvarint(b, v.time)
			b = binary.AppendUvarint(b, v.val)
		}
	}
	for _, pc := range s.pc {
		b = binary.AppendUvarint(b, uint64(pc))
	}
	for _, q := range s.sb {
		b = binary.AppendUvarint(b, uint64(len(q)))
		for _, p := range q {
			b = binary.AppendUvarint(b, uint64(p.loc))
			b = binary.AppendUvarint(b, p.val)
		}
	}
	for _, v := range s.slab {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// commit appends a new version of loc to the coherence order and advances
// the logical clock.
func (s *state) commit(t, loc int, val uint64) {
	s.clock++
	s.hist[loc] = append(s.hist[loc], version{time: s.clock, val: val})
	s.lastCommit[s.at(t, loc)] = s.clock
}

// drain commits thread t's buffered stores in program order (a barrier
// drain, release semantics, or thread exit).
func (s *state) drain(t int) {
	for _, p := range s.sb[t] {
		s.commit(t, p.loc, p.val)
	}
	s.sb[t] = s.sb[t][:0]
}

// current returns the newest version of loc (the memory value) and its
// commit time; (0, 0) when the location was never stored to.
func (s *state) current(loc int) (val, time uint64) {
	h := s.hist[loc]
	if len(h) == 0 {
		return 0, 0
	}
	last := h[len(h)-1]
	return last.val, last.time
}

// valueAt returns the value loc held at logical time floor — the newest
// version with commit time <= floor — and that version's time. This is
// the versioning-window-start value a stale load observes (§3.2).
func (s *state) valueAt(loc int, floor uint64) (val, time uint64) {
	for _, v := range s.hist[loc] {
		if v.time > floor {
			break
		}
		val, time = v.val, v.time
	}
	return val, time
}

// pendingIndex returns the index of thread t's in-flight store to loc, or
// -1 when none is buffered.
func (s *state) pendingIndex(t, loc int) int {
	for i, p := range s.sb[t] {
		if p.loc == loc {
			return i
		}
	}
	return -1
}

// machine is one exhaustive exploration.
type machine struct {
	test    *lkmm.Test
	mm      *memmodel.Table
	visited stateSet
	// slots[2d] and slots[2d+1] hold the successors of the state explored
	// at depth d. A successor stays valid until the next step at its
	// depth, which comes only after its own subtree is explored.
	slots    []state
	outcomes *lkmm.OutcomeSet
}

// Run explores every interleaving of the test's threads across every
// store-buffer/versioning choice under the LKMM and returns the permitted
// outcome set. The search is exhaustive and deterministic; litmus tests
// are tiny by design, so the deduplicated state space is small.
func Run(t *lkmm.Test) *Result { return RunModel(t, memmodel.LKMM) }

// RunModel is Run under an arbitrary memory model: every transition rule
// reads its barrier/atomicity semantics from the given table.
func RunModel(t *lkmm.Test, mm *memmodel.Table) *Result {
	// Every step retires one op, so the search is at most ops deep; the
	// extra state is the root.
	ops := 0
	for _, th := range t.Threads {
		ops += len(th)
	}
	states := newStates(t, 2*ops+1)
	m := &machine{
		test:     t,
		mm:       mm,
		visited:  newStateSet(),
		slots:    states[1:],
		outcomes: lkmm.NewOutcomeSet(),
	}
	m.explore(&states[0], 0)
	return &Result{Outcomes: m.outcomes.Outcomes, States: m.visited.len()}
}

// explore recurses over all successor states of s, the state at search
// depth d, recording the outcome when every thread has retired.
func (m *machine) explore(s *state, d int) {
	if !m.visited.insert(s) {
		return
	}
	done := true
	for ti := range m.test.Threads {
		if s.pc[ti] >= len(m.test.Threads[ti]) {
			continue
		}
		done = false
		succ, n := m.step(s, ti, d)
		for _, ns := range succ[:n] {
			m.explore(ns, d+1)
		}
	}
	if done {
		// Thread exit drains any remaining buffered stores (the syscall
		// boundary, §3.1), but draining commits memory only: the registers
		// are already final.
		m.outcomes.Add(s.regs)
	}
}

// succ returns successor slot k of depth d refilled with a copy of s.
func (m *machine) succ(s *state, d, k int) *state {
	ns := &m.slots[2*d+k]
	ns.copyFrom(s)
	return ns
}

// step executes thread ti's next op from s, the state at depth d, and
// returns every permitted successor — one per nondeterministic choice the
// memory model grants the op — in depth d's slots.
func (m *machine) step(s *state, ti, d int) (out [2]*state, n int) {
	mm := m.mm
	op := m.test.Threads[ti][s.pc[ti]]
	switch op.Kind {
	case lkmm.OpBarrier:
		// The barrier table of the active model: store-ordering barriers
		// drain the buffer, load-ordering barriers pin the versioning
		// window (under LKMM these are exactly the five §10.1 barrier PPO
		// cases; under TSO only smp_mb does either).
		ns := m.succ(s, d, 0)
		ns.pc[ti]++
		if mm.OrdersStores(op.Bar) {
			ns.drain(ti)
		}
		if mm.OrdersLoads(op.Bar) {
			ns.tRmb[ti] = ns.clock
		}
		return [2]*state{ns}, 1

	case lkmm.OpStore:
		if mm.Release(op.Atomic) {
			// Case 5 (or a TSO locked RMW): all precedent accesses
			// complete first; the release store itself is never delayed.
			ns := m.succ(s, d, 0)
			ns.pc[ti]++
			ns.drain(ti)
			ns.commit(ti, op.Loc, op.Val)
			return [2]*state{ns}, 1
		}
		if mm.StoreStoreOrdered() {
			// FIFO store buffer (x86-TSO): no coalescing — a second store
			// to a buffered location drains the buffer first — and an
			// in-place commit must drain older buffered stores so
			// visibility order matches program order. Mirrors the
			// emulator's FlushPPO rules exactly.
			inOrder := m.succ(s, d, 0)
			inOrder.pc[ti]++
			inOrder.drain(ti)
			inOrder.commit(ti, op.Loc, op.Val)
			if !mm.Delayable(op.Atomic) {
				return [2]*state{inOrder}, 1
			}
			delayed := m.succ(s, d, 1)
			if s.pendingIndex(ti, op.Loc) >= 0 {
				delayed.drain(ti)
			}
			delayed.pc[ti]++
			delayed.sb[ti] = append(delayed.sb[ti], pendingStore{loc: op.Loc, val: op.Val})
			return [2]*state{inOrder, delayed}, 2
		}
		if idx := s.pendingIndex(ti, op.Loc); idx >= 0 {
			// CoWW: same-location program order is preserved by
			// coalescing into the in-flight entry; the intermediate
			// value never reaches the coherence order (a real store
			// buffer also permits this).
			ns := m.succ(s, d, 0)
			ns.pc[ti]++
			ns.sb[ti][idx].val = op.Val
			return [2]*state{ns}, 1
		}
		// The store-buffering choice of §3.1: commit in place, or — when
		// the model lets this annotation delay — hold the value back
		// until the next drain point.
		inOrder := m.succ(s, d, 0)
		inOrder.pc[ti]++
		inOrder.commit(ti, op.Loc, op.Val)
		if !mm.Delayable(op.Atomic) {
			return [2]*state{inOrder}, 1
		}
		delayed := m.succ(s, d, 1)
		delayed.pc[ti]++
		delayed.sb[ti] = append(delayed.sb[ti], pendingStore{loc: op.Loc, val: op.Val})
		return [2]*state{inOrder, delayed}, 2

	case lkmm.OpLoad:
		if idx := s.pendingIndex(ti, op.Loc); idx >= 0 {
			// CoWR: an in-flight own store must be forwarded. The
			// forwarded value is not yet in the coherence order, so the
			// seen floor does not move.
			ns := m.succ(s, d, 0)
			ns.pc[ti]++
			ns.regs[op.Reg] = ns.sb[ti][idx].val
			if mm.LoadBarrier(op.Atomic) {
				ns.tRmb[ti] = ns.clock
			}
			return [2]*state{ns}, 1
		}
		// The versioning choice of §3.2: observe the current value, or —
		// when the model lets this annotation version — the value the
		// location held at the window start. The window floor honours the
		// load barriers (tRmb), the thread's own commits (CoWR), and
		// versions already observed (CoRR). A model with no versionable
		// loads (TSO: no invalidation-queue effects) always reads the
		// current value.
		curVal, curTime := s.current(op.Loc)
		out[0] = m.readLoad(m.succ(s, d, 0), ti, op, curVal, curTime)
		n = 1
		if mm.Versionable(op.Atomic) {
			floor := s.tRmb[ti]
			if lc := s.lastCommit[s.at(ti, op.Loc)]; lc > floor {
				floor = lc
			}
			if sv := s.seen[s.at(ti, op.Loc)]; sv > floor {
				floor = sv
			}
			if oldVal, oldTime := s.valueAt(op.Loc, floor); oldTime != curTime {
				out[1] = m.readLoad(m.succ(s, d, 1), ti, op, oldVal, oldTime)
				n = 2
			}
		}
		return out, n
	}
	panic(fmt.Sprintf("model: unknown op kind %d", op.Kind))
}

// readLoad turns ns, a copy of the pre-load state, into the successor of
// a (non-forwarded) load observing the version (val, time): the register
// and the CoRR floor update, plus the window pin of model-designated
// load-barrier annotations (LKMM Cases 4 and 6; acquire only under
// ARMv8).
func (m *machine) readLoad(ns *state, ti int, op lkmm.Op, val, time uint64) *state {
	ns.pc[ti]++
	ns.regs[op.Reg] = val
	ns.seen[ns.at(ti, op.Loc)] = time
	if m.mm.LoadBarrier(op.Atomic) {
		ns.tRmb[ti] = ns.clock
	}
	return ns
}

// stateSet is the visited-state set. Keys are appended back to back to
// one arena, and an open-addressing table maps each key's hash to its
// index, so inserting a new state costs no allocation of its own and
// looking up a visited one costs none at all.
type stateSet struct {
	arena []byte
	// ends[i] is the arena offset just past key i; key i starts where key
	// i-1 ends.
	ends []uint32
	// table holds tag<<32 | (i+1) for key i, where tag is the high half of
	// the key's hash; 0 marks an empty slot. The low bits of the tag pick
	// the home slot, and the table is kept at most half full.
	table []uint64
	seed  maphash.Seed
}

func newStateSet() stateSet {
	return stateSet{
		arena: make([]byte, 0, 4096),
		ends:  make([]uint32, 0, 128),
		table: make([]uint64, 256),
		seed:  maphash.MakeSeed(),
	}
}

func (v *stateSet) len() int { return len(v.ends) }

// key returns key i's bytes.
func (v *stateSet) key(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = v.ends[i-1]
	}
	return v.arena[start:v.ends[i]]
}

// insert adds s's key and reports whether it was new. A key already
// present is truncated off the arena again.
func (v *stateSet) insert(s *state) bool {
	start := len(v.arena)
	v.arena = s.appendKey(v.arena)
	k := v.arena[start:]
	tag := maphash.Bytes(v.seed, k) >> 32
	mask := uint64(len(v.table) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		e := v.table[i]
		if e == 0 {
			v.ends = append(v.ends, uint32(len(v.arena)))
			v.table[i] = tag<<32 | uint64(len(v.ends))
			if 2*len(v.ends) > len(v.table) {
				v.grow()
			}
			return true
		}
		if e>>32 == tag && bytes.Equal(v.key(int(uint32(e))-1), k) {
			v.arena = v.arena[:start]
			return false
		}
	}
}

// grow doubles the table and reinserts every entry by its stored tag.
func (v *stateSet) grow() {
	old := v.table
	v.table = make([]uint64, 2*len(old))
	mask := uint64(len(v.table) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := (e >> 32) & mask
		for v.table[i] != 0 {
			i = (i + 1) & mask
		}
		v.table[i] = e
	}
}
