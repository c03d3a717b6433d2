package kernel

import (
	"ozz/internal/trace"
)

// Atomic operations and bit operations, with the ordering semantics the
// Linux kernel documents (Documentation/atomic_t.txt, atomic_bitops.txt):
//
//   - value-returning RMW ops (test_and_set_bit, atomic_inc_return, xchg,
//     cmpxchg) are fully ordered: smp_mb() before and after;
//   - non-value-returning ops (set_bit, clear_bit, atomic_inc) are
//     UNORDERED — their store side may be delayed by OEMU exactly like a
//     plain store, which is the root cause of the paper's Bug #1 (Fig. 8);
//   - _lock/_unlock variants have acquire/release semantics
//     (test_and_set_bit_lock, clear_bit_unlock).

// rmw performs the load half and store half of a read-modify-write through
// OEMU with the given atomicities. The store half is NOT a scheduling point:
// the RMW is indivisible with respect to thread interleaving (though its
// store side may still be delayed by OEMU when unordered, like clear_bit).
func (t *Task) rmw(i trace.InstrID, addr trace.Addr, loadAtom, storeAtom trace.Atomicity, f func(uint64) uint64) (old uint64) {
	old = t.load(i, addr, loadAtom)
	t.storeOpt(i, addr, f(old), storeAtom, false)
	return old
}

// AtomicRead is atomic_read()/atomic64_read(): a READ_ONCE-strength load.
func (t *Task) AtomicRead(i trace.InstrID, addr trace.Addr) uint64 {
	return t.load(i, addr, trace.Atomic)
}

// AtomicIncReturn is atomic_inc_return(): fully ordered.
func (t *Task) AtomicIncReturn(i trace.InstrID, addr trace.Addr) uint64 {
	t.mbImplicit(i)
	old := t.rmw(i, addr, trace.Atomic, trace.Once, func(v uint64) uint64 { return v + 1 })
	t.mbImplicit(i)
	return old + 1
}

// AtomicDecReturn is atomic_dec_return(): fully ordered.
func (t *Task) AtomicDecReturn(i trace.InstrID, addr trace.Addr) uint64 {
	t.mbImplicit(i)
	old := t.rmw(i, addr, trace.Atomic, trace.Once, func(v uint64) uint64 { return v - 1 })
	t.mbImplicit(i)
	return old - 1
}

// Xchg is xchg(): fully ordered swap, returns the old value.
func (t *Task) Xchg(i trace.InstrID, addr trace.Addr, v uint64) uint64 {
	t.mbImplicit(i)
	old := t.rmw(i, addr, trace.Atomic, trace.Once, func(uint64) uint64 { return v })
	t.mbImplicit(i)
	return old
}

// Cmpxchg is cmpxchg(): fully ordered compare-and-swap, returns the old
// value (swap happened iff old == want).
func (t *Task) Cmpxchg(i trace.InstrID, addr trace.Addr, want, v uint64) uint64 {
	t.mbImplicit(i)
	old := t.rmw(i, addr, trace.Atomic, trace.Once, func(cur uint64) uint64 {
		if cur == want {
			return v
		}
		return cur
	})
	t.mbImplicit(i)
	return old
}

// TestAndSetBit is test_and_set_bit(): value-returning, fully ordered.
func (t *Task) TestAndSetBit(i trace.InstrID, bit uint, addr trace.Addr) bool {
	t.mbImplicit(i)
	old := t.rmw(i, addr, trace.Atomic, trace.Once, func(v uint64) uint64 { return v | 1<<bit })
	t.mbImplicit(i)
	return old&(1<<bit) != 0
}

// TestAndSetBitLock is test_and_set_bit_lock(): acquire semantics on
// success — the lock-acquisition primitive.
func (t *Task) TestAndSetBitLock(i trace.InstrID, bit uint, addr trace.Addr) bool {
	old := t.rmw(i, addr, trace.AtomicAcquire, trace.Once, func(v uint64) uint64 { return v | 1<<bit })
	return old&(1<<bit) != 0
}

// TestAndClearBit is test_and_clear_bit(): value-returning, fully ordered.
func (t *Task) TestAndClearBit(i trace.InstrID, bit uint, addr trace.Addr) bool {
	t.mbImplicit(i)
	old := t.rmw(i, addr, trace.Atomic, trace.Once, func(v uint64) uint64 { return v &^ (1 << bit) })
	t.mbImplicit(i)
	return old&(1<<bit) != 0
}

// SetBit is set_bit(): non-value-returning, UNORDERED.
func (t *Task) SetBit(i trace.InstrID, bit uint, addr trace.Addr) {
	t.rmw(i, addr, trace.Atomic, trace.Once, func(v uint64) uint64 { return v | 1<<bit })
}

// ClearBit is clear_bit(): non-value-returning, UNORDERED. Using this to
// release a bit lock is the paper's Bug #1 — the store side may be
// reordered with (delayed past commits of) the critical section's stores.
func (t *Task) ClearBit(i trace.InstrID, bit uint, addr trace.Addr) {
	t.rmw(i, addr, trace.Atomic, trace.Once, func(v uint64) uint64 { return v &^ (1 << bit) })
}

// ClearBitUnlock is clear_bit_unlock(): release semantics — all precedent
// accesses complete before the bit clears. The correct unlock primitive.
func (t *Task) ClearBitUnlock(i trace.InstrID, bit uint, addr trace.Addr) {
	t.rmw(i, addr, trace.Atomic, trace.AtomicRelease, func(v uint64) uint64 { return v &^ (1 << bit) })
}

// TestBit is test_bit(): a READ_ONCE-strength load of the bit.
func (t *Task) TestBit(i trace.InstrID, bit uint, addr trace.Addr) bool {
	return t.load(i, addr, trace.Atomic)&(1<<bit) != 0
}

// SmpMbBeforeAtomic is smp_mb__before_atomic(): upgrades a following
// non-value-returning atomic (set_bit, clear_bit, atomic_inc, ...) to be
// fully ordered against precedent accesses.
func (t *Task) SmpMbBeforeAtomic(i trace.InstrID) { t.Mb(i) }

// SmpMbAfterAtomic is smp_mb__after_atomic(): orders subsequent accesses
// after a preceding non-value-returning atomic. The real fix for several
// clear_bit-based wakeup protocols.
func (t *Task) SmpMbAfterAtomic(i trace.InstrID) { t.Mb(i) }

// SmpStoreMb is smp_store_mb(*addr, v): a store followed by a full fence —
// the idiom of sleep/wakeup flag handoffs (set_current_state).
func (t *Task) SmpStoreMb(i trace.InstrID, addr trace.Addr, v uint64) {
	t.store(i, addr, v, trace.Once)
	t.Mb(i)
}
