package kernel

import (
	"ozz/internal/trace"
)

// Spinlocks built on the atomic bit operations, with lockdep validation.
// The lock word lives in simulated memory, so OEMU and the sanitizer see
// every lock operation; lockdep provides the deadlock oracle (§3, "benefits
// of in-vivo emulation").

// lockBit is the bit used in a lock word.
const lockBit = 0

// SpinLock acquires the spinlock whose word is at addr. class names the
// lock's lockdep class. The task spin-waits (yielding to the scheduler)
// while the lock is held elsewhere.
func (t *Task) SpinLock(i trace.InstrID, addr trace.Addr, class string) {
	t.K.Lockdep.BeforeAcquire(t, addr, class)
	for t.TestAndSetBitLock(i, lockBit, addr) {
		if t.sch != nil {
			t.sch.BlockSpin()
		} else {
			// Outside a session (driver context) nobody can hold it.
			t.Crashf("deadlock", "spinlock recursion on %s", class)
		}
	}
	if t.sch != nil {
		t.sch.ClearSpin()
	}
	t.K.Lockdep.Acquired(t, addr, class)
}

// SpinUnlock releases the spinlock (release semantics: clear_bit_unlock).
func (t *Task) SpinUnlock(i trace.InstrID, addr trace.Addr) {
	t.K.Lockdep.Released(t, addr)
	t.ClearBitUnlock(i, lockBit, addr)
}

// Lockdep is a runtime lock-order validator in the spirit of Linux's
// lockdep: it learns the order in which lock classes are taken and crashes
// on a cycle ("possible circular locking dependency").
type Lockdep struct {
	// edges[a][b]: class a was held while acquiring class b.
	edges map[string]map[string]bool
	// held tracks the classes each task currently holds, in order.
	held map[int][]heldLock
}

type heldLock struct {
	addr  trace.Addr
	class string
}

// NewLockdep returns an empty validator.
func NewLockdep() *Lockdep {
	return &Lockdep{
		edges: make(map[string]map[string]bool),
		held:  make(map[int][]heldLock),
	}
}

// Reset forgets all learned lock-order edges and held-lock state, returning
// the validator to its freshly-constructed state (used when a kernel is
// recycled across independent executions).
func (l *Lockdep) Reset() {
	clear(l.edges)
	clear(l.held)
}

// BeforeAcquire validates the ordering of an acquisition attempt and records
// the dependency edges. It crashes the task on (a) AA recursion and (b) a
// learned ABBA cycle.
func (l *Lockdep) BeforeAcquire(t *Task, addr trace.Addr, class string) {
	for _, h := range l.held[t.ID] {
		if h.addr == addr {
			t.Crashf("lockdep", "WARNING: possible recursive locking detected (%s)", class)
		}
		if h.class == class {
			continue // same-class nesting: allow (real lockdep uses subclasses)
		}
		// Edge held.class -> class; a pre-existing reverse path is a
		// potential ABBA deadlock.
		if l.path(class, h.class, map[string]bool{}) {
			t.Crashf("lockdep", "WARNING: possible circular locking dependency detected (%s -> %s)", h.class, class)
		}
		m := l.edges[h.class]
		if m == nil {
			m = make(map[string]bool)
			l.edges[h.class] = m
		}
		m[class] = true
	}
}

// path reports whether class "to" is reachable from "from" in the learned
// dependency graph.
func (l *Lockdep) path(from, to string, seen map[string]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for next := range l.edges[from] {
		if l.path(next, to, seen) {
			return true
		}
	}
	return false
}

// Acquired records a successful acquisition.
func (l *Lockdep) Acquired(t *Task, addr trace.Addr, class string) {
	l.held[t.ID] = append(l.held[t.ID], heldLock{addr: addr, class: class})
}

// Released records a release (any order, like the kernel).
func (l *Lockdep) Released(t *Task, addr trace.Addr) {
	hs := l.held[t.ID]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].addr == addr {
			l.held[t.ID] = append(hs[:i], hs[i+1:]...)
			return
		}
	}
	// Releasing a lock not held: a bug in module code, not the kernel
	// under test — surface loudly.
	t.Crashf("lockdep", "WARNING: bad unlock balance detected at 0x%x", uint64(addr))
}
