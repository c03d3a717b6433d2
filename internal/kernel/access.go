package kernel

import "ozz/internal/trace"

// This file is the instrumented memory-access API — the Go equivalent of the
// callbacks the paper's LLVM pass inserts in place of loads, stores, and
// barriers (Fig. 2). Module code performs ALL shared-memory accesses through
// these methods, each carrying a static instruction-site ID.

// load is the common load path: scheduling point, sanitizer check, OEMU (or
// direct) read, profiling.
func (t *Task) load(i trace.InstrID, addr trace.Addr, atom trace.Atomicity) uint64 {
	if !t.K.Instrumented {
		if !t.K.Sanitizers {
			// Entirely plain kernel (no compiler pass, no fuzzing
			// config): no callback work at all — Table 5's baseline.
			return t.K.Mem.Read(addr)
		}
		// Fuzzing kernel without OEMU (KASAN + KCov + scheduling
		// points): the syzkaller baseline of §6.3.2.
		t.yield(i)
		if f := t.K.Mem.Check(i, addr, trace.Load); f != nil {
			t.crashFault(f)
		}
		return t.K.Mem.Read(addr)
	}
	t.yield(i)
	if t.K.OnAccess != nil {
		t.K.OnAccess(t, trace.AccessEvent{Instr: i, Addr: addr, Kind: trace.Load, Atomic: atom})
	}
	if f := t.K.Mem.Check(i, addr, trace.Load); f != nil {
		t.crashFault(f)
	}
	v := t.oe.Load(i, addr, atom)
	if t.Prof != nil {
		t.Prof.RecordAccess(trace.AccessEvent{
			Instr: i, Addr: addr,
			Kind: trace.Load, Atomic: atom, Time: t.K.Em.Now(),
			PerCPU: t.K.IsPerCPU(addr),
		})
		if atom != trace.Plain {
			// Annotated loads act as a load barrier for subsequent
			// loads (LKMM Case 4/6; §3.2). Recording the implicit
			// barrier keeps Algorithm 1's groups consistent with
			// what OEMU will actually allow at runtime. The atomicity
			// rides along so the hint layer can re-derive the effect
			// under the active memory model (a relaxed annotated load
			// is no barrier under armv8).
			t.Prof.RecordBarrier(trace.BarrierEvent{Instr: i, Kind: trace.BarrierLoad, Time: t.K.Em.Now(), Implicit: true, Atomic: atom})
		}
	}
	return v
}

// store is the common store path (see load).
func (t *Task) store(i trace.InstrID, addr trace.Addr, v uint64, atom trace.Atomicity) {
	t.storeOpt(i, addr, v, atom, true)
}

// storeOpt lets read-modify-write operations perform their store half
// WITHOUT a scheduling point: an atomic RMW is indivisible, so no
// interleaving may land between its load and its store.
func (t *Task) storeOpt(i trace.InstrID, addr trace.Addr, v uint64, atom trace.Atomicity, yield bool) {
	if !t.K.Instrumented {
		if !t.K.Sanitizers {
			t.K.Mem.Write(addr, v) // plain kernel: see load
			return
		}
		if yield {
			t.yield(i)
		}
		if f := t.K.Mem.Check(i, addr, trace.Store); f != nil {
			t.crashFault(f)
		}
		t.K.Mem.Write(addr, v)
		return
	}
	if yield {
		t.yield(i)
	}
	if t.K.OnAccess != nil {
		t.K.OnAccess(t, trace.AccessEvent{Instr: i, Addr: addr, Kind: trace.Store, Atomic: atom, NoYield: !yield})
	}
	if f := t.K.Mem.Check(i, addr, trace.Store); f != nil {
		t.crashFault(f)
	}
	if t.Prof != nil && atom == trace.AtomicRelease {
		t.Prof.RecordBarrier(trace.BarrierEvent{Instr: i, Kind: trace.BarrierRelease, Time: t.K.Em.Now()})
	}
	t.oe.Store(i, addr, v, atom)
	if t.Prof != nil {
		t.Prof.RecordAccess(trace.AccessEvent{
			Instr: i, Addr: addr,
			Kind: trace.Store, Atomic: atom, Time: t.K.Em.Now(),
			NoYield: !yield, PerCPU: t.K.IsPerCPU(addr),
		})
	}
}

// Load is a plain (unannotated) load: obj->field.
func (t *Task) Load(i trace.InstrID, addr trace.Addr) uint64 {
	return t.load(i, addr, trace.Plain)
}

// Store is a plain (unannotated) store: obj->field = v.
func (t *Task) Store(i trace.InstrID, addr trace.Addr, v uint64) {
	t.store(i, addr, v, trace.Plain)
}

// ReadOnce is READ_ONCE(*addr).
func (t *Task) ReadOnce(i trace.InstrID, addr trace.Addr) uint64 {
	return t.load(i, addr, trace.Once)
}

// WriteOnce is WRITE_ONCE(*addr, v). Note it provides NO ordering against
// other locations (Table 1, "Relaxed") — the lesson of the paper's Bug #9.
func (t *Task) WriteOnce(i trace.InstrID, addr trace.Addr, v uint64) {
	t.store(i, addr, v, trace.Once)
}

// LoadAcquire is smp_load_acquire(addr).
func (t *Task) LoadAcquire(i trace.InstrID, addr trace.Addr) uint64 {
	v := t.load(i, addr, trace.AtomicAcquire)
	if t.Prof != nil {
		t.Prof.RecordBarrier(trace.BarrierEvent{Instr: i, Kind: trace.BarrierAcquire, Time: t.K.Em.Now()})
	}
	return v
}

// StoreRelease is smp_store_release(addr, v).
func (t *Task) StoreRelease(i trace.InstrID, addr trace.Addr, v uint64) {
	t.store(i, addr, v, trace.AtomicRelease)
}

// barrier is the common explicit-barrier path.
func (t *Task) barrier(i trace.InstrID, kind trace.BarrierKind) {
	t.barrierOpt(i, kind, false)
}

// barrierOpt records the barrier as implicit when it is not a source-level
// barrier call (the fences inside value-returning atomics).
func (t *Task) barrierOpt(i trace.InstrID, kind trace.BarrierKind, implicit bool) {
	if !t.K.Instrumented {
		if t.K.Sanitizers {
			t.yield(i)
		}
		return // no OEMU: a real barrier instruction costs ~nothing here
	}
	t.yield(i)
	t.oe.Barrier(kind)
	if t.Prof != nil {
		t.Prof.RecordBarrier(trace.BarrierEvent{Instr: i, Kind: kind, Time: t.K.Em.Now(), Implicit: implicit})
	}
}

// mbImplicit is the full fence inside a value-returning atomic RMW: real
// ordering, but invisible to source-level barrier matching.
func (t *Task) mbImplicit(i trace.InstrID) { t.barrierOpt(i, trace.BarrierFull, true) }

// Mb is smp_mb().
func (t *Task) Mb(i trace.InstrID) { t.barrier(i, trace.BarrierFull) }

// Rmb is smp_rmb().
func (t *Task) Rmb(i trace.InstrID) { t.barrier(i, trace.BarrierLoad) }

// Wmb is smp_wmb().
func (t *Task) Wmb(i trace.InstrID) { t.barrier(i, trace.BarrierStore) }

// Interrupt models an interrupt arriving on the task's CPU, which drains the
// virtual store buffer (§3.1).
func (t *Task) Interrupt() {
	if t.K.Instrumented {
		t.oe.Interrupt()
	}
}

// SyscallExitSite is the distinguished instruction site of the syscall
// return path. It is a scheduling point: an interleaving can land between
// the last instruction of a system call and the store-buffer drain at kernel
// exit, which is exactly where a hypothetical-store-barrier test whose
// scheduling point is the call's final store needs to switch.
const SyscallExitSite trace.InstrID = 0xffff

// SyscallReturn is invoked by the syscall dispatcher when a system call
// completes: the store buffer drains (the thread leaves the kernel through
// an interrupt/return path).
func (t *Task) SyscallReturn() {
	if !t.K.Instrumented {
		if t.K.Sanitizers {
			t.yield(SyscallExitSite)
		}
		return
	}
	t.yield(SyscallExitSite)
	t.oe.FlushAtSyscallExit()
}
