package kernel

import (
	"ozz/internal/trace"
)

// Read-copy-update: the flagship lockless technique the paper's
// introduction motivates. Readers mark read-side critical sections;
// updaters publish with release semantics (rcu_assign_pointer), readers
// consume with an annotated load (rcu_dereference), and reclamation waits
// for a grace period (synchronize_rcu).
//
// The ordering content is exactly the paper's subject: rcu_assign_pointer
// IS a release store — replace it with a plain store and the publication
// races out of order (the rcudev module's bug).

// RCU is the per-kernel RCU state.
type RCU struct {
	k *Kernel
	// nesting tracks read-side critical-section depth per task.
	nesting map[int]int
}

// RCU returns the kernel's RCU instance (created on first use).
func (k *Kernel) RCU() *RCU {
	if k.rcu == nil {
		k.rcu = &RCU{k: k, nesting: make(map[int]int)}
	}
	return k.rcu
}

// ReadLock enters a read-side critical section (rcu_read_lock).
func (r *RCU) ReadLock(t *Task) {
	r.nesting[t.ID]++
}

// ReadUnlock leaves the read-side critical section (rcu_read_unlock).
func (r *RCU) ReadUnlock(t *Task) {
	if r.nesting[t.ID] == 0 {
		t.Crashf("rcu", "WARNING: rcu_read_unlock without rcu_read_lock")
	}
	r.nesting[t.ID]--
}

// InReader reports whether the task is inside a read-side section.
func (r *RCU) InReader(t *Task) bool { return r.nesting[t.ID] > 0 }

// readersActive reports whether any OTHER task is inside a read-side
// section.
func (r *RCU) readersActive(t *Task) bool {
	for id, n := range r.nesting {
		if id != t.ID && n > 0 {
			return true
		}
	}
	return false
}

// Synchronize waits for a grace period: every read-side critical section
// that started before the call has ended. Calling it from inside a
// read-side section is a deadlock by definition and crashes immediately
// (like lockdep-RCU).
func (r *RCU) Synchronize(t *Task) {
	if r.InReader(t) {
		t.Crashf("rcu", "WARNING: synchronize_rcu inside a read-side critical section")
	}
	// A grace period implies full ordering on the caller.
	t.Mb(rcuSyncSite)
	for r.readersActive(t) {
		if t.Sched() == nil || t.Sched().Peers() == 0 {
			break // nobody can be mid-section: trivially quiescent
		}
		t.Sched().BlockSpin()
		t.Sched().ClearSpin()
	}
	t.Mb(rcuSyncSite)
}

// rcuSyncSite is the instruction site of synchronize_rcu's fences.
const rcuSyncSite trace.InstrID = 0xfff0

// RcuAssignPointer is rcu_assign_pointer(*addr, v): a release store — all
// initialization of the pointed-to object is ordered before the
// publication.
func (t *Task) RcuAssignPointer(i trace.InstrID, addr trace.Addr, v uint64) {
	t.StoreRelease(i, addr, v)
}

// RcuDereference is rcu_dereference(*addr): an annotated load whose
// address dependency orders subsequent dereferences (LKMM Case 6 — OEMU
// models it as a load barrier after the load, §3.2).
func (t *Task) RcuDereference(i trace.InstrID, addr trace.Addr) uint64 {
	return t.load(i, addr, trace.Once)
}
