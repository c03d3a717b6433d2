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
//
// Reacher.Reaches searches the same machine for a goal instead: whether
// any execution ends in one of a given set of register files. Fence
// repair's legality check asks it with the buggy outcomes as goals, so
// the search stops at the first buggy outcome and never builds a state
// whose already-final registers rule every goal out.
//
// A machine state is one flat []uint8, placed by a per-test layout:
//
//	clock
//	per thread:   pc, versioning-window start, then the CoWR floor and
//	              the CoRR floor of every location
//	registers
//	per location: history length, then one (time, value) pair per entry
//	per thread:   store-buffer length, then one (location, value) pair
//	              per entry
//
// Every value a state holds — a register, a history entry's value, a
// buffered store's value — is an index into the layout's value table,
// which interns the values the test's stores write (index 0 is the
// initial 0); RunModel maps registers back to values only when it records
// an outcome, and Reacher.Reaches maps its targets to indexes once per
// call. Every other word is a clock time, a pc, a length or a location
// index, so each fits one byte for a test within Fits' limits: at most
// 255 ops in a thread, 255 stores and 255 locations.
//
// Each history and store-buffer window is as large as it can grow in the
// test — one entry per store to the location, one per store of the
// thread — and entries past a window's length stay zero (a drain zeroes
// what it commits), as do the padding bytes that round a state up to a
// multiple of 8. Equal states therefore have equal bytes: a successor is
// one copy, and the visited-set key is the state's own bytes. A history
// lists a location's commits in coherence order (the initial 0 at time 0
// is implicit); a store buffer lists a thread's in-flight stores in
// program order, at most one per location.
package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

// limit is the largest count a state byte holds: Fits' bound on a test's
// ops per thread, stores and locations.
const limit = 255

// Fits reports whether the reference machine can explore t: at most 255
// ops in any thread, 255 stores and 255 locations, so every clock time,
// pc, length, location and value index of its states fits one byte.
// RunModel and Reacher.Reaches panic on a test that does not fit.
func Fits(t *lkmm.Test) bool { return unfit(t) == "" }

// unfit names the first of Fits' limits t exceeds, or "" when it fits.
func unfit(t *lkmm.Test) string {
	if t.NumLocs > limit {
		return "locations"
	}
	stores := 0
	for _, ops := range t.Threads {
		if len(ops) > limit {
			return "ops in a thread"
		}
		for _, op := range ops {
			if op.Kind == lkmm.OpStore {
				stores++
			}
		}
	}
	if stores > limit {
		return "stores"
	}
	return ""
}

// state is one abstract machine configuration, laid out by its test's
// layout (see the package doc). The clock is byte 0.
type state []uint8

// layout places one test's states in their bytes.
type layout struct {
	locs int
	// threadWords is the size of one thread's block; thread t's block
	// starts at 1 + t*threadWords.
	threadWords int
	// regs and nregs are the offset of register 0 and the register count.
	regs, nregs int
	// hist[l] and sb[t] are the offsets of location l's history length
	// and thread t's store-buffer length; their entries follow.
	hist, sb []int
	// words is the state size, one byte per word, padded to a multiple
	// of 8.
	words int
	// vals is the value table: value index i stands for vals[i], and
	// vals[0] is the initial 0.
	vals []uint64
	// stored[t][i] is the value index of thread t's op i when it is a
	// store.
	stored [][]uint8
}

// build lays out test t's states and interns its stored values, reusing
// the layout's storage.
func (l *layout) build(t *lkmm.Test) {
	threads, locs := len(t.Threads), t.NumLocs
	l.locs = locs
	l.threadWords = 2 + 2*locs
	l.regs, l.nregs = 1+threads*l.threadWords, t.NumRegs
	l.hist = slices.Grow(l.hist[:0], locs)[:locs]
	l.sb = slices.Grow(l.sb[:0], threads)[:threads]
	clear(l.hist)
	clear(l.sb)
	l.vals = append(l.vals[:0], 0)
	l.stored = slices.Grow(l.stored[:0], threads)[:threads]
	// Count the stores per location and per thread — the most entries a
	// history and a buffer can hold — then turn the counts into offsets.
	for ti, ops := range t.Threads {
		l.stored[ti] = slices.Grow(l.stored[ti][:0], len(ops))[:len(ops)]
		for i, op := range ops {
			if op.Kind == lkmm.OpStore {
				l.hist[op.Loc]++
				l.sb[ti]++
				l.stored[ti][i] = l.intern(op.Val)
			}
		}
	}
	w := l.regs + l.nregs
	for i, n := range l.hist {
		l.hist[i], w = w, w+1+2*n
	}
	for i, n := range l.sb {
		l.sb[i], w = w, w+1+2*n
	}
	l.words = (w + 7) &^ 7
}

// intern returns v's value index, adding v to the value table if it is
// new.
func (l *layout) intern(v uint64) uint8 {
	i := slices.Index(l.vals, v)
	if i < 0 {
		i = len(l.vals)
		l.vals = append(l.vals, v)
	}
	return uint8(i)
}

// pc is the offset of thread t's next-op index.
func (l *layout) pc(t int) int { return 1 + t*l.threadWords }

// window is the offset of thread t's versioning-window start (§3.2).
func (l *layout) window(t int) int { return 2 + t*l.threadWords }

// cowr is the offset of the commit time of thread t's own newest
// committed store to loc (CoWR floor), 0 if none.
func (l *layout) cowr(t, loc int) int { return 3 + t*l.threadWords + loc }

// corr is the offset of the version time thread t most recently observed
// at loc (CoRR floor), 0 if none.
func (l *layout) corr(t, loc int) int { return 3 + t*l.threadWords + l.locs + loc }

// registers returns s's register file (loads write it) as value indexes.
func (l *layout) registers(s state) []uint8 { return s[l.regs : l.regs+l.nregs] }

// commit appends a new version of loc, holding value index val, to the
// coherence order and advances the logical clock.
func (l *layout) commit(s state, t, loc int, val uint8) {
	s[0]++
	h := l.hist[loc]
	e := h + 1 + 2*int(s[h])
	s[h]++
	s[e], s[e+1] = s[0], val
	s[l.cowr(t, loc)] = s[0]
}

// drain commits thread t's buffered stores in program order (a barrier
// drain, release semantics, or thread exit) and zeroes the buffer.
func (l *layout) drain(s state, t int) {
	b := l.sb[t]
	end := b + 1 + 2*int(s[b])
	for e := b + 1; e < end; e += 2 {
		l.commit(s, t, int(s[e]), s[e+1])
	}
	clear(s[b:end])
}

// buffer appends a store of value index val to loc to thread t's store
// buffer.
func (l *layout) buffer(s state, t, loc int, val uint8) {
	b := l.sb[t]
	e := b + 1 + 2*int(s[b])
	s[b]++
	s[e], s[e+1] = uint8(loc), val
}

// current returns the newest version of loc (the memory value's index)
// and its commit time; (0, 0) when the location was never stored to.
func (l *layout) current(s state, loc int) (val, time uint8) {
	h := l.hist[loc]
	if s[h] == 0 {
		return 0, 0
	}
	e := h + 1 + 2*int(s[h]-1)
	return s[e+1], s[e]
}

// valueAt returns the value index loc held at logical time floor — the
// newest version with commit time <= floor — and that version's time.
// This is the versioning-window-start value a stale load observes (§3.2).
func (l *layout) valueAt(s state, loc int, floor uint8) (val, time uint8) {
	h := l.hist[loc]
	end := h + 1 + 2*int(s[h])
	for e := h + 1; e < end; e += 2 {
		if s[e] > floor {
			break
		}
		val, time = s[e+1], s[e]
	}
	return val, time
}

// pending returns the offset of thread t's in-flight store to loc, whose
// value index is the next byte, or -1 when none is buffered.
func (l *layout) pending(s state, t, loc int) int {
	b := l.sb[t]
	end := b + 1 + 2*int(s[b])
	for e := b + 1; e < end; e += 2 {
		if s[e] == uint8(loc) {
			return e
		}
	}
	return -1
}

// machine is one exploration: exhaustive when outcomes is set (RunModel),
// goal-directed otherwise (Reacher.Reaches).
type machine struct {
	test    *lkmm.Test
	mm      *memmodel.Table
	l       layout
	visited stateSet
	// slots holds the root state, then the successors of the state
	// explored at each depth: depth d's are slots 2d+1 and 2d+2, each
	// l.words long. A successor stays valid until the next step at its
	// depth, which comes only after its own subtree is explored.
	slots    []uint8
	outcomes *lkmm.OutcomeSet
	// regVals is a finished state's register file mapped back to values,
	// as RunModel records it.
	regVals []uint64
	// targets are the register files, as value-index vectors sliced from
	// targetBuf, a goal-directed search looks for; found is set once a
	// finished state matches one, and ends the search.
	targets   [][]uint8
	targetBuf []uint8
	found     bool
	// writes[r] counts the loads into register r.
	writes []int
	// final lists the registers with exactly one writer. Such a register
	// is final once its writer has retired, and a load whose successor's
	// final registers contradict every target builds no successor.
	final []finalReg
}

// finalReg is a register with a single writer: the load at pos of thread.
type finalReg struct {
	reg, thread, pos int
}

// RunModel explores every interleaving of the test's threads across every
// store-buffer/versioning choice under the given memory model and returns
// the permitted outcome set; every transition rule reads its
// barrier/atomicity semantics from the model's table. The search is
// exhaustive and deterministic; litmus tests are tiny by design, so the
// deduplicated state space is small. It panics on a test that does not
// Fit.
func RunModel(t *lkmm.Test, mm *memmodel.Table) *Result {
	return new(Reacher).RunModel(t, mm)
}

// Reacher explores the reference machine with storage it keeps across
// calls: its layout, successor slots and visited set grow to the largest
// test asked about and are reused, so a caller asking about many tests
// (fence candidates add only barriers and annotations) allocates nothing
// per call once warm, beyond the outcome set RunModel returns. The zero
// value is ready to use; a Reacher must not be used by two goroutines at
// once.
type Reacher struct {
	m machine
}

// RunModel is the package-level RunModel on r's storage.
func (r *Reacher) RunModel(t *lkmm.Test, mm *memmodel.Table) *Result {
	m := &r.m
	root := r.prepare(t, mm)
	m.regVals = slices.Grow(m.regVals[:0], t.NumRegs)[:t.NumRegs]
	m.outcomes = lkmm.NewOutcomeSet()
	m.explore(root, 0)
	res := &Result{Outcomes: m.outcomes.Outcomes, States: m.visited.len()}
	m.outcomes = nil
	return res
}

// Reaches reports whether some execution of t under mm ends with its
// register file equal to one of targets (each of length t.NumRegs). It
// stops at the first such execution, and never builds a state whose
// single-writer registers already hold values no target has; the answer
// equals asking whether RunModel's outcome set contains a target. It
// panics on a test that does not Fit.
func (r *Reacher) Reaches(t *lkmm.Test, mm *memmodel.Table, targets [][]uint64) bool {
	if len(targets) == 0 {
		return false
	}
	m := &r.m
	root := r.prepare(t, mm)
	if !m.setTargets(targets) {
		return false
	}
	r.buildFinal(t)
	m.explore(root, 0)
	return m.found
}

// prepare checks that t fits, lays it out, sizes the slots and empties
// the visited set, reusing their storage, and returns the zeroed root
// state.
func (r *Reacher) prepare(t *lkmm.Test, mm *memmodel.Table) state {
	if what := unfit(t); what != "" {
		panic(fmt.Sprintf("model: test %q has more than %d %s", t.Name, limit, what))
	}
	m := &r.m
	m.test, m.mm, m.found = t, mm, false
	m.l.build(t)
	// Every step retires one op, so the search is at most NumOps deep,
	// with two successor slots per level plus the root.
	need := (2*t.NumOps() + 1) * m.l.words
	if cap(m.slots) < need {
		m.slots = make([]uint8, need)
	}
	m.slots = m.slots[:need]
	m.visited.reset(m.l.words)
	root := state(m.slots[:m.l.words])
	clear(root)
	return root
}

// setTargets maps targets to value-index vectors in the machine's
// storage, dropping every target that holds a value no store writes (no
// register ever holds one), and reports whether any remain.
func (m *machine) setTargets(targets [][]uint64) bool {
	m.targetBuf = slices.Grow(m.targetBuf[:0], len(targets)*m.l.nregs)
	m.targets = m.targets[:0]
next:
	for _, tg := range targets {
		start := len(m.targetBuf)
		for _, v := range tg {
			i := slices.Index(m.l.vals, v)
			if i < 0 {
				m.targetBuf = m.targetBuf[:start]
				continue next
			}
			m.targetBuf = append(m.targetBuf, uint8(i))
		}
		m.targets = append(m.targets, m.targetBuf[start:len(m.targetBuf):len(m.targetBuf)])
	}
	return len(m.targets) > 0
}

// buildFinal fills the machine's single-writer register list for t.
func (r *Reacher) buildFinal(t *lkmm.Test) {
	m := &r.m
	m.writes = slices.Grow(m.writes[:0], t.NumRegs)[:t.NumRegs]
	clear(m.writes)
	for _, ops := range t.Threads {
		for _, op := range ops {
			if op.Kind == lkmm.OpLoad {
				m.writes[op.Reg]++
			}
		}
	}
	m.final = m.final[:0]
	for ti, ops := range t.Threads {
		for pos, op := range ops {
			if op.Kind == lkmm.OpLoad && m.writes[op.Reg] == 1 {
				m.final = append(m.final, finalReg{reg: op.Reg, thread: ti, pos: pos})
			}
		}
	}
}

// explore recurses over all successor states of s, the state at search
// depth d, recording the outcome when every thread has retired. A
// goal-directed search returns as soon as a target is found.
func (m *machine) explore(s state, d int) {
	if !m.visited.insert(s) {
		return
	}
	done := true
	for ti, ops := range m.test.Threads {
		if int(s[m.l.pc(ti)]) >= len(ops) {
			continue
		}
		done = false
		succ, n := m.step(s, ti, d)
		for _, ns := range succ[:n] {
			m.explore(ns, d+1)
			if m.found {
				return
			}
		}
	}
	if !done {
		return
	}
	// Thread exit drains any remaining buffered stores (the syscall
	// boundary, §3.1), but draining commits memory only: the registers
	// are already final.
	regs := m.l.registers(s)
	if m.outcomes != nil {
		for i, v := range regs {
			m.regVals[i] = m.l.vals[v]
		}
		m.outcomes.Add(m.regVals)
		return
	}
	for _, tg := range m.targets {
		if bytes.Equal(regs, tg) {
			m.found = true
			return
		}
	}
}

// prunes reports whether a goal-directed search should drop the successor
// of s in which load op retires with value index val: op is its
// register's only writer, and with that register final at val, every
// target disagrees with one of the final registers, so no execution
// through the successor ends on a target. Only such a load can make a
// state contradict the targets, so checking here, before the successor is
// built, prunes every state a check of each state would.
func (m *machine) prunes(s state, op lkmm.Op, val uint8) bool {
	if m.outcomes != nil || m.writes[op.Reg] != 1 {
		return false
	}
next:
	for _, tg := range m.targets {
		if tg[op.Reg] != val {
			continue
		}
		// op's own entry is skipped: its thread's pc is still op's.
		for _, f := range m.final {
			if int(s[m.l.pc(f.thread)]) > f.pos && s[m.l.regs+f.reg] != tg[f.reg] {
				continue next
			}
		}
		return false
	}
	return true
}

// succ returns successor slot k of depth d refilled with a copy of s.
func (m *machine) succ(s state, d, k int) state {
	w := m.l.words
	ns := state(m.slots[(2*d+1+k)*w : (2*d+2+k)*w])
	copy(ns, s)
	return ns
}

// step executes thread ti's next op from s, the state at depth d, and
// returns every permitted successor — one per nondeterministic choice the
// memory model grants the op — in depth d's slots. A goal-directed search
// gets only the load successors it does not prune.
func (m *machine) step(s state, ti, d int) (out [2]state, n int) {
	mm, l := m.mm, &m.l
	pc := l.pc(ti)
	op := m.test.Threads[ti][s[pc]]
	switch op.Kind {
	case lkmm.OpBarrier:
		// The barrier table of the active model: store-ordering barriers
		// drain the buffer, load-ordering barriers pin the versioning
		// window (under LKMM these are exactly the five §10.1 barrier PPO
		// cases; under TSO only smp_mb does either).
		ns := m.succ(s, d, 0)
		ns[pc]++
		if mm.OrdersStores(op.Bar) {
			l.drain(ns, ti)
		}
		if mm.OrdersLoads(op.Bar) {
			ns[l.window(ti)] = ns[0]
		}
		return [2]state{ns}, 1

	case lkmm.OpStore:
		val := l.stored[ti][s[pc]]
		if mm.Release(op.Atomic) {
			// Case 5 (or a TSO locked RMW): all precedent accesses
			// complete first; the release store itself is never delayed.
			ns := m.succ(s, d, 0)
			ns[pc]++
			l.drain(ns, ti)
			l.commit(ns, ti, op.Loc, val)
			return [2]state{ns}, 1
		}
		if mm.StoreStoreOrdered() {
			// FIFO store buffer (x86-TSO): no coalescing — a second store
			// to a buffered location drains the buffer first — and an
			// in-place commit must drain older buffered stores so
			// visibility order matches program order. Mirrors the
			// emulator's FlushPPO rules exactly.
			inOrder := m.succ(s, d, 0)
			inOrder[pc]++
			l.drain(inOrder, ti)
			l.commit(inOrder, ti, op.Loc, val)
			if !mm.Delayable(op.Atomic) {
				return [2]state{inOrder}, 1
			}
			delayed := m.succ(s, d, 1)
			if l.pending(s, ti, op.Loc) >= 0 {
				l.drain(delayed, ti)
			}
			delayed[pc]++
			l.buffer(delayed, ti, op.Loc, val)
			return [2]state{inOrder, delayed}, 2
		}
		if e := l.pending(s, ti, op.Loc); e >= 0 {
			// CoWW: same-location program order is preserved by
			// coalescing into the in-flight entry; the intermediate
			// value never reaches the coherence order (a real store
			// buffer also permits this).
			ns := m.succ(s, d, 0)
			ns[pc]++
			ns[e+1] = val
			return [2]state{ns}, 1
		}
		// The store-buffering choice of §3.1: commit in place, or — when
		// the model lets this annotation delay — hold the value back
		// until the next drain point.
		inOrder := m.succ(s, d, 0)
		inOrder[pc]++
		l.commit(inOrder, ti, op.Loc, val)
		if !mm.Delayable(op.Atomic) {
			return [2]state{inOrder}, 1
		}
		delayed := m.succ(s, d, 1)
		delayed[pc]++
		l.buffer(delayed, ti, op.Loc, val)
		return [2]state{inOrder, delayed}, 2

	case lkmm.OpLoad:
		if e := l.pending(s, ti, op.Loc); e >= 0 {
			// CoWR: an in-flight own store must be forwarded. The
			// forwarded value is not yet in the coherence order, so the
			// seen floor does not move.
			if m.prunes(s, op, s[e+1]) {
				return out, 0
			}
			ns := m.succ(s, d, 0)
			ns[pc]++
			ns[l.regs+op.Reg] = ns[e+1]
			if mm.LoadBarrier(op.Atomic) {
				ns[l.window(ti)] = ns[0]
			}
			return [2]state{ns}, 1
		}
		// The versioning choice of §3.2: observe the current value, or —
		// when the model lets this annotation version — the value the
		// location held at the window start. The window floor honours the
		// load barriers (the window start), the thread's own commits
		// (CoWR), and versions already observed (CoRR). A model with no
		// versionable loads (TSO: no invalidation-queue effects) always
		// reads the current value.
		curVal, curTime := l.current(s, op.Loc)
		if !m.prunes(s, op, curVal) {
			out[n] = m.readLoad(m.succ(s, d, n), ti, op, curVal, curTime)
			n++
		}
		if mm.Versionable(op.Atomic) {
			floor := max(s[l.window(ti)], s[l.cowr(ti, op.Loc)], s[l.corr(ti, op.Loc)])
			if oldVal, oldTime := l.valueAt(s, op.Loc, floor); oldTime != curTime && !m.prunes(s, op, oldVal) {
				out[n] = m.readLoad(m.succ(s, d, n), ti, op, oldVal, oldTime)
				n++
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
func (m *machine) readLoad(ns state, ti int, op lkmm.Op, val, time uint8) state {
	l := &m.l
	ns[l.pc(ti)]++
	ns[l.regs+op.Reg] = val
	ns[l.corr(ti, op.Loc)] = time
	if m.mm.LoadBarrier(op.Atomic) {
		ns[l.window(ti)] = ns[0]
	}
	return ns
}

// stateSet is the visited-state set. Every key is one state's bytes, all
// of one test's layout and so of one width: key i is keys[i*width :
// (i+1)*width]. An open-addressing table maps each key's hash to its
// index, so inserting a new state costs no allocation of its own and
// looking up a visited one costs none at all.
type stateSet struct {
	keys  []uint8
	width int
	// table holds tag<<32 | (i+1) for key i, where tag is the high half of
	// the key's hash; 0 marks an empty slot. The low bits of the tag pick
	// the home slot, and the table is kept at most half full.
	table []uint64
}

func (v *stateSet) len() int { return len(v.keys) / v.width }

// reset empties the set for keys of width bytes, keeping its storage.
func (v *stateSet) reset(width int) {
	if v.table == nil {
		v.table = make([]uint64, 256)
	}
	v.keys = v.keys[:0]
	v.width = width
	clear(v.table)
}

// insert adds s and reports whether it was new.
func (v *stateSet) insert(s state) bool {
	tag := hashWords(s) >> 32
	mask := uint64(len(v.table) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		e := v.table[i]
		if e == 0 {
			if len(v.keys)+len(s) > cap(v.keys) {
				// Double by hand: append grows a large slice by a
				// quarter, which copies the keys too often.
				v.keys = slices.Grow(v.keys, max(len(v.keys), 64*len(s)))
			}
			v.keys = append(v.keys, s...)
			n := v.len()
			v.table[i] = tag<<32 | uint64(n)
			if 2*n > len(v.table) {
				v.grow()
			}
			return true
		}
		if e>>32 == tag {
			k := (int(uint32(e)) - 1) * v.width
			if bytes.Equal(v.keys[k:k+v.width], s) {
				return false
			}
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

// Constants of hashWords, from wyhash.
const (
	hashK0 = 0xa0761d6478bd642f
	hashK1 = 0xe7037ed1a0b428db
	hashK2 = 0x8ebc6af09c88c6e3
)

// hashWords hashes a state's bytes as little-endian 8-byte words (every
// layout pads its states to a multiple of 8), two words at a time,
// wyhash style: each round folds the 128-bit product of one word and the
// other word mixed with the hash so far, so one multiply covers 16 bytes
// and a difference in any byte reaches the high half the table's tags
// come from.
func hashWords(s []uint8) uint64 {
	h := uint64(len(s)) ^ hashK0
	for ; len(s) >= 16; s = s[16:] {
		h = mix(binary.LittleEndian.Uint64(s)^hashK1, binary.LittleEndian.Uint64(s[8:])^h)
	}
	if len(s) >= 8 {
		h = mix(binary.LittleEndian.Uint64(s)^hashK1, h^hashK2)
	}
	return mix(h^hashK0, hashK2)
}

// mix folds the 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
