// Package trace defines the event model OZZ's profiler records while a
// single-threaded input executes (§4.2 of the paper).
//
// Every instrumented memory access is recorded as a five-tuple — instruction
// address, accessed memory location, access size, access kind (load/store),
// and timestamp — and every memory barrier as a three-tuple — instruction
// address, barrier kind, and timestamp. OZZ's scheduling-hint calculation
// (Algorithm 1) consumes these sequences.
package trace

import (
	"fmt"
	"strings"
)

// InstrID identifies a static instruction site carrying a memory access or a
// memory barrier. It plays the role of the instruction address the paper's
// LLVM pass records: each access site in a simulated kernel module is
// assigned a unique, stable InstrID at module registration time.
type InstrID uint64

// NoInstr is the zero InstrID, used where no instruction site applies.
const NoInstr InstrID = 0

// Addr is an address in the simulated kernel memory. The simulated memory is
// word-addressed: every Addr names one 64-bit slot.
type Addr uint64

// AccessKind distinguishes loads from stores.
type AccessKind uint8

const (
	// Load is a memory read.
	Load AccessKind = iota
	// Store is a memory write.
	Store
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == Load {
		return "load"
	}
	return "store"
}

// Atomicity describes the annotation on an access, which decides its
// ordering side effects under the LKMM (§10.1 of the paper).
type Atomicity uint8

const (
	// Plain is an unannotated access. Plain loads may be reordered with
	// other plain loads even across address dependencies (the Alpha rule).
	Plain Atomicity = iota
	// Once is READ_ONCE()/WRITE_ONCE(). A Once load acts as a load barrier
	// for subsequent dependent loads (LKMM Case 6); a Once store has no
	// ordering effect (Table 1: "Relaxed").
	Once
	// Atomic is an atomic RMW operation without acquire/release semantics
	// (e.g. test_and_set_bit, clear_bit). Like Once, an Atomic load side
	// acts as a load barrier for subsequent loads.
	Atomic
	// AtomicAcquire is an atomic or plain load with acquire semantics
	// (smp_load_acquire, test_and_set_bit_lock).
	AtomicAcquire
	// AtomicRelease is an atomic or plain store with release semantics
	// (smp_store_release, clear_bit_unlock).
	AtomicRelease

	// NumAtomicities is the number of Atomicity values; enumeration and
	// exhaustiveness checks (internal/memmodel) iterate [0, NumAtomicities).
	NumAtomicities = int(AtomicRelease) + 1
)

// AllAtomicities lists every Atomicity value in declaration order, for
// table-driven exhaustiveness tests.
func AllAtomicities() []Atomicity {
	out := make([]Atomicity, NumAtomicities)
	for i := range out {
		out[i] = Atomicity(i)
	}
	return out
}

// String returns a short human-readable name.
func (a Atomicity) String() string {
	switch a {
	case Plain:
		return "plain"
	case Once:
		return "once"
	case Atomic:
		return "atomic"
	case AtomicAcquire:
		return "acquire"
	case AtomicRelease:
		return "release"
	}
	return fmt.Sprintf("atomicity(%d)", uint8(a))
}

// ActsAsLoadBarrier reports whether a LOAD with this annotation orders
// subsequent loads after itself — the two dependency cases of the LKMM's
// preserved program order (§10.1): an acquire load (Case 4) and an
// annotated load (READ_ONCE / atomic RMW, Case 6, the conservative
// address-dependency rule). OEMU advances the versioning window after such
// loads; the reference model (internal/lkmm/model) and the
// hypothetical-barrier test (internal/hints) share this predicate so all
// three agree on which loads pin the window. This is the LKMM reading;
// other memory models override it via internal/memmodel tables.
func (a Atomicity) ActsAsLoadBarrier() bool {
	return a == Once || a == Atomic || a == AtomicAcquire
}

// IsRelease reports whether a STORE with this annotation orders all
// precedent accesses before itself (LKMM Case 5: smp_store_release,
// clear_bit_unlock). A release store drains the virtual store buffer and
// is never itself delayed.
func (a Atomicity) IsRelease() bool { return a == AtomicRelease }

// BarrierKind enumerates the memory barriers of Table 1.
type BarrierKind uint8

const (
	// BarrierFull is smp_mb(): orders all precedent loads/stores against
	// all subsequent loads/stores.
	BarrierFull BarrierKind = iota
	// BarrierLoad is smp_rmb(): orders precedent loads against subsequent
	// loads.
	BarrierLoad
	// BarrierStore is smp_wmb(): orders precedent stores against
	// subsequent stores.
	BarrierStore
	// BarrierAcquire is the ordering half of smp_load_acquire(): the
	// annotated load is ordered before all subsequent loads/stores.
	BarrierAcquire
	// BarrierRelease is the ordering half of smp_store_release(): all
	// precedent loads/stores are ordered before the annotated store.
	BarrierRelease

	// NumBarrierKinds is the number of BarrierKind values; enumeration and
	// exhaustiveness checks (internal/memmodel) iterate [0, NumBarrierKinds).
	NumBarrierKinds = int(BarrierRelease) + 1
)

// AllBarrierKinds lists every BarrierKind value in declaration order, for
// table-driven exhaustiveness tests.
func AllBarrierKinds() []BarrierKind {
	out := make([]BarrierKind, NumBarrierKinds)
	for i := range out {
		out[i] = BarrierKind(i)
	}
	return out
}

// String returns the Linux API name for the barrier.
func (b BarrierKind) String() string {
	switch b {
	case BarrierFull:
		return "smp_mb"
	case BarrierLoad:
		return "smp_rmb"
	case BarrierStore:
		return "smp_wmb"
	case BarrierAcquire:
		return "smp_load_acquire"
	case BarrierRelease:
		return "smp_store_release"
	}
	return fmt.Sprintf("barrier(%d)", uint8(b))
}

// OrdersStores reports whether the barrier forbids delaying precedent stores
// past it (store buffer flush points: store, full, and release barriers).
func (b BarrierKind) OrdersStores() bool {
	return b == BarrierFull || b == BarrierStore || b == BarrierRelease
}

// OrdersLoads reports whether the barrier forbids subsequent loads from
// reading values older than the barrier point (versioning-window reset
// points: load, full, and acquire barriers).
func (b BarrierKind) OrdersLoads() bool {
	return b == BarrierFull || b == BarrierLoad || b == BarrierAcquire
}

// AccessEvent is the five-tuple recorded for a memory access (§4.2).
type AccessEvent struct {
	Instr  InstrID
	Addr   Addr
	Size   uint8 // bytes; the simulated memory is word-addressed so this is 8
	Kind   AccessKind
	Atomic Atomicity
	Time   uint64 // logical timestamp at which the access executed
	// NoYield marks the store half of a read-modify-write operation: it
	// shares its scheduling point with the load half (an RMW is
	// indivisible), so occurrence counting for breakpoints must not count
	// it separately.
	NoYield bool
	// PerCPU marks an access to memory obtained from a per-CPU allocation
	// (kernel.PerCPUAlloc). Hint calculation uses it to classify a racing
	// pair as migration-sensitive: a pair sharing per-CPU locations only
	// races when one thread migrates between resolving the address and
	// using it (Table 4 #6).
	PerCPU bool
}

// BarrierEvent is the three-tuple recorded for a memory barrier (§4.2).
type BarrierEvent struct {
	Instr InstrID
	Kind  BarrierKind
	Time  uint64
	// Implicit marks ordering that is not a source-level barrier call:
	// the load-barrier effect of an annotated load (READ_ONCE/atomic,
	// LKMM Case 6) and the full fences inside value-returning atomic
	// RMW operations. OEMU and Algorithm 1 honour them like any barrier;
	// a source-level static analysis (OFence, §6.4) cannot see them.
	Implicit bool
	// Atomic is the annotation of the access that induced an implicit
	// barrier (zero for source-level barrier calls). Whether such an
	// annotation really orders anything is model-relative — LKMM's Case 6
	// makes READ_ONCE a load barrier, ARMv8's does not — so the hint layer
	// re-derives the effect from the active memmodel.Table instead of
	// trusting Kind alone.
	Atomic Atomicity
}

// Event is one profiled event: either a memory access or a memory barrier.
type Event struct {
	Barrier bool
	Acc     AccessEvent // valid when !Barrier
	Bar     BarrierEvent
}

// Instr returns the instruction site of the event regardless of its kind.
func (e Event) Instr() InstrID {
	if e.Barrier {
		return e.Bar.Instr
	}
	return e.Acc.Instr
}

// Time returns the logical timestamp of the event regardless of its kind.
func (e Event) Time() uint64 {
	if e.Barrier {
		return e.Bar.Time
	}
	return e.Acc.Time
}

// String renders the event compactly, e.g. "store@12 0x40=…" or "smp_wmb@7".
func (e Event) String() string {
	if e.Barrier {
		return fmt.Sprintf("%s@%d", e.Bar.Kind, e.Bar.Instr)
	}
	return fmt.Sprintf("%s(%s)@%d addr=0x%x", e.Acc.Kind, e.Acc.Atomic, e.Acc.Instr, uint64(e.Acc.Addr))
}

// Buffer accumulates the profiled events of one task executing a sequence
// of system calls. It is append-only between Resets and owned by a single
// task.
type Buffer struct {
	Events []Event
}

// RecordAccess appends an access five-tuple.
func (b *Buffer) RecordAccess(a AccessEvent) {
	b.Events = append(b.Events, Event{Acc: a})
}

// RecordBarrier appends a barrier three-tuple.
func (b *Buffer) RecordBarrier(ev BarrierEvent) {
	b.Events = append(b.Events, Event{Barrier: true, Bar: ev})
}

// Reset drops all recorded events while keeping the backing storage.
func (b *Buffer) Reset() {
	b.Events = b.Events[:0]
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.Events) }

// Accesses returns only the access events, in order.
func (b *Buffer) Accesses() []AccessEvent {
	out := make([]AccessEvent, 0, len(b.Events))
	for _, e := range b.Events {
		if !e.Barrier {
			out = append(out, e.Acc)
		}
	}
	return out
}

// Barriers returns only the barrier events, in order.
func (b *Buffer) Barriers() []BarrierEvent {
	var out []BarrierEvent
	for _, e := range b.Events {
		if e.Barrier {
			out = append(out, e.Bar)
		}
	}
	return out
}

// Since returns the events recorded after the first start, or nil when
// there are none. The view's capacity ends at its length, so appending to
// it copies instead of overwriting events recorded later. It aliases the
// buffer: a Reset followed by new records overwrites it.
func (b *Buffer) Since(start int) []Event {
	n := len(b.Events)
	if start == n {
		return nil
	}
	return b.Events[start:n:n]
}

// Dump renders all events one per line, for debugging and reports.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	for i, e := range b.Events {
		fmt.Fprintf(&sb, "%3d: %s\n", i, e)
	}
	return sb.String()
}
