// Package kernel implements the simulated kernel runtime the bug-corpus
// modules are written against: tasks, the instrumented memory-access API
// (the moral equivalent of the paper's LLVM-pass-inserted callbacks, Fig. 2),
// atomic operations and bit locks, a slab allocator with KASAN oracles, a
// lockdep-style lock-order validator, per-CPU variables, a function-pointer
// table, and KCov-style edge coverage.
//
// Every instrumented operation is simultaneously
//
//  1. a scheduling point for the deterministic scheduler (package sched),
//  2. an OEMU operation that may be reordered (package oemu),
//  3. a sanitizer check (package kmem), and
//  4. a profiling event while OZZ's single-threaded phase runs (§4.2).
//
// Setting Kernel.Instrumented = false bypasses OEMU and profiling entirely,
// modelling the paper's uninstrumented baseline kernel (Table 5).
package kernel

import (
	"fmt"

	"ozz/internal/kmem"
	"ozz/internal/oemu"
	"ozz/internal/sched"
	"ozz/internal/trace"
)

// Crash is the simulated kernel's oops/panic. It is thrown as a Go panic
// from the faulting task and recovered at the scheduler session boundary.
type Crash struct {
	// Title is the dedup key, formatted like a syzkaller crash title,
	// e.g. "KASAN: slab-out-of-bounds Read in rds_loop_xmit".
	Title string
	// Oracle names the detector: kasan, null-deref, gpf, lockdep,
	// assert, deadlock.
	Oracle string
}

// Error implements error.
func (c *Crash) Error() string { return c.Title }

// FnBase is the value-space base for function-pointer encodings. Function
// "addresses" handed out by RegisterFn are FnBase|index, so stored function
// pointers are plain uint64 values in simulated memory, and calling a
// corrupt one faults just like the real kernel.
const FnBase uint64 = 0xffff_f000_0000_0000

// Fn is a simulated kernel function reachable through a function pointer.
type Fn func(t *Task, arg uint64) uint64

// Kernel is one simulated kernel instance. Each test execution gets a fresh
// instance: memory, emulator, oracles, and module state all start clean, so
// runs are deterministic and independent.
type Kernel struct {
	Mem *kmem.Memory
	Em  *oemu.OEMU

	// Instrumented selects the OEMU path (the compiler pass applied:
	// access callbacks, scheduling points, profiling, reordering).
	Instrumented bool

	// Sanitizers keeps KASAN/KCov/scheduling points active when
	// Instrumented is false — the configuration of a syzkaller fuzzing
	// kernel WITHOUT OEMU (the §6.3.2 throughput baseline). With both
	// flags false the kernel is entirely plain (Table 5's baseline).
	Sanitizers bool

	Lockdep *Lockdep

	// Cov accumulates KCov-style edges (prev site << 32 | site).
	Cov EdgeSet

	// Soft collects non-crash oracle reports (e.g. the wrong-return-value
	// symptom of Table 4 bug #8) without aborting execution. Reset keeps
	// its storage, so a holder past the next Reset must copy it.
	Soft []string

	// OnAccess, when non-nil, observes every instrumented memory access
	// before it executes. It is the attachment point for access-driven
	// tools such as the KCSAN-style watchpoint race detector
	// (internal/baseline/kcsan). The hook may suspend the task through
	// its scheduler handle.
	OnAccess func(t *Task, ev trace.AccessEvent)

	fns []Fn

	tasks  []*Task
	nextID int

	percpuRanges []percpuRange

	rcu *RCU
}

// NrCPU is the simulated CPU count of every kernel: the paper's 4-vCPU
// test VMs (§6).
const NrCPU = 4

// New creates a fresh instrumented kernel with NrCPU simulated CPUs.
func New() *Kernel {
	mem := kmem.New()
	k := &Kernel{
		Mem:          mem,
		Em:           oemu.New(mem),
		Instrumented: true,
		Lockdep:      NewLockdep(),
	}
	// Slot 0 of the fn table is never handed out: FnBase|0 is reserved so
	// that a zeroed function pointer is NULL, not a callable entry.
	k.fns = append(k.fns, nil)
	return k
}

// Reset returns the kernel to the state New left it in — empty memory,
// emulator, oracles, coverage, and task/function tables — while retaining
// the underlying storage, so an executor can recycle one Kernel across
// independent test executions instead of rebuilding it. The coverage set
// and Soft are cleared in place: a caller that hands a run's coverage or
// soft reports out must copy them before the next Reset.
func (k *Kernel) Reset() {
	k.Mem.Reset()
	k.Em.Reset()
	k.Instrumented = true
	k.Sanitizers = false
	k.Lockdep.Reset()
	k.Cov.Clear()
	k.Soft = k.Soft[:0]
	k.OnAccess = nil
	k.fns = k.fns[:1]
	k.tasks = k.tasks[:0]
	k.nextID = 0
	k.percpuRanges = k.percpuRanges[:0]
	k.rcu = nil
}

// NewTask creates a simulated kernel task pinned to the given CPU. After a
// Reset it reuses the Task structs of earlier runs, which keep their call
// stack storage and leave func.
func (k *Kernel) NewTask(cpu int) *Task {
	var t *Task
	if n := len(k.tasks); n < cap(k.tasks) {
		t = k.tasks[:n+1][n]
	}
	if t == nil {
		t = new(Task)
	}
	*t = Task{
		K:        k,
		ID:       k.nextID,
		oe:       k.Em.NewThread(),
		cpu:      cpu,
		fnStack:  t.fnStack[:0],
		leave:    t.leave,
		lastEdge: noEdge,
	}
	k.tasks = append(k.tasks, t)
	k.nextID++
	return t
}

// RegisterFn installs a function in the kernel's function table and returns
// its pointer value (suitable for storing in simulated memory).
func (k *Kernel) RegisterFn(fn Fn) uint64 {
	k.fns = append(k.fns, fn)
	return FnBase | uint64(len(k.fns)-1)
}

// Task is one simulated kernel task: the execution context module code runs
// in. It binds together the scheduler handle (per session), the OEMU
// thread (persistent), the profiling buffer, and the current-function stack
// used to format crash titles.
type Task struct {
	K  *Kernel
	ID int

	oe  *oemu.Thread
	sch *sched.Task
	cpu int

	// Prof, when non-nil, records the access/barrier events of §4.2.
	Prof *trace.Buffer

	fnStack []string
	// leave pops fnStack; Enter hands out this one func instead of a new
	// closure per call.
	leave    func()
	prevSite trace.InstrID
	// lastEdge caches the coverage edge inserted by the previous yield so
	// tight loops re-hitting the same edge (spin waits, scan loops) skip
	// the map assignment. Initialized to an impossible edge value.
	lastEdge uint64
}

// noEdge is the lastEdge sentinel: site ids are far below 2^32, so a real
// edge never has all upper bits set.
const noEdge = ^uint64(0)

// Bind attaches the task to a scheduler-session task handle. The kernel task
// persists across sessions (its OEMU store buffer survives); the session
// handle is per-run.
func (t *Task) Bind(s *sched.Task) { t.sch = s }

// Sched returns the bound scheduler handle (nil outside a session).
func (t *Task) Sched() *sched.Task { return t.sch }

// OEMU returns the task's emulator thread, through which the fuzzer installs
// reordering directives (Table 2).
func (t *Task) OEMU() *oemu.Thread { return t.oe }

// CPU returns the simulated CPU the task currently runs on.
func (t *Task) CPU() int {
	if t.sch != nil {
		return t.sch.CPU
	}
	return t.cpu
}

// Enter pushes a function name onto the task's call stack for crash titles;
// use as: defer t.Enter("tls_setsockopt")().
func (t *Task) Enter(name string) func() {
	t.fnStack = append(t.fnStack, name)
	if t.leave == nil {
		t.leave = func() { t.fnStack = t.fnStack[:len(t.fnStack)-1] }
	}
	return t.leave
}

// CurrentFn returns the innermost function name, or "unknown".
func (t *Task) CurrentFn() string {
	if n := len(t.fnStack); n > 0 {
		return t.fnStack[n-1]
	}
	return "unknown"
}

// yield hits the scheduling point for instruction site i and records the
// coverage edge.
func (t *Task) yield(i trace.InstrID) {
	if t.sch != nil {
		t.sch.Yield(i)
	}
	edge := uint64(t.prevSite)<<32 | uint64(i)
	if edge != t.lastEdge {
		t.K.Cov.Add(edge)
		t.lastEdge = edge
	}
	t.prevSite = i
}

// Crash throws a kernel crash from this task.
func (t *Task) Crash(c *Crash) {
	panic(c)
}

// Crashf formats and throws a crash with the given oracle.
func (t *Task) Crashf(oracle, format string, args ...any) {
	t.Crash(&Crash{Title: fmt.Sprintf(format, args...), Oracle: oracle})
}

// Assert throws a "kernel BUG" crash when cond is false.
func (t *Task) Assert(cond bool, what string) {
	if !cond {
		t.Crash(&Crash{Title: "kernel BUG: " + what + " in " + t.CurrentFn(), Oracle: "assert"})
	}
}

// SoftReport records a non-crash oracle hit (execution continues).
func (t *Task) SoftReport(title string) {
	t.K.Soft = append(t.K.Soft, title)
}

// crashFault converts a sanitizer fault into a crash with a Linux-flavored
// title naming the current function.
func (t *Task) crashFault(f *kmem.Fault) {
	fn := t.CurrentFn()
	var title, oracle string
	rw := "Read"
	if f.Acc == trace.Store {
		rw = "Write"
	}
	switch f.Kind {
	case kmem.FaultNull:
		if f.Acc == trace.Store {
			title = fmt.Sprintf("KASAN: null-ptr-deref %s in %s", rw, fn)
			oracle = "kasan"
		} else {
			title = fmt.Sprintf("BUG: unable to handle kernel NULL pointer dereference in %s", fn)
			oracle = "null-deref"
		}
	case kmem.FaultWild:
		title = fmt.Sprintf("general protection fault in %s", fn)
		oracle = "gpf"
	case kmem.FaultOOB:
		title = fmt.Sprintf("KASAN: slab-out-of-bounds %s in %s", rw, fn)
		oracle = "kasan"
	case kmem.FaultUAF:
		title = fmt.Sprintf("KASAN: use-after-free %s in %s", rw, fn)
		oracle = "kasan"
	default:
		title = fmt.Sprintf("unexpected fault in %s", fn)
		oracle = "kasan"
	}
	t.Crash(&Crash{Title: title, Oracle: oracle})
}

// Kmalloc allocates n words of simulated kernel memory (uninitialized,
// poison-patterned like real kmalloc under slub_debug).
func (t *Task) Kmalloc(n int) trace.Addr { return t.K.Mem.Alloc(n) }

// Kzalloc allocates n zeroed words.
func (t *Task) Kzalloc(n int) trace.Addr { return t.K.Mem.AllocZeroed(n) }

// Kfree frees an allocation; freeing a bad pointer crashes (KASAN
// invalid-free).
func (t *Task) Kfree(a trace.Addr) {
	if err := t.K.Mem.Free(a); err != nil {
		t.Crash(&Crash{Title: "KASAN: invalid-free in " + t.CurrentFn(), Oracle: "kasan"})
	}
}

// CallFn invokes a function-pointer value loaded from simulated memory.
// A zero value is a NULL function-pointer dereference; a value outside the
// function table is a wild jump (general protection fault) — e.g. the
// kmalloc poison pattern of a never-initialized pointer field.
func (t *Task) CallFn(i trace.InstrID, val uint64, arg uint64) uint64 {
	t.yield(i)
	if val == 0 {
		t.Crash(&Crash{
			Title:  "BUG: unable to handle kernel NULL pointer dereference in " + t.CurrentFn(),
			Oracle: "null-deref",
		})
	}
	if val&FnBase != FnBase {
		t.Crash(&Crash{Title: "general protection fault in " + t.CurrentFn(), Oracle: "gpf"})
	}
	idx := int(val &^ FnBase)
	if idx <= 0 || idx >= len(t.K.fns) {
		t.Crash(&Crash{Title: "general protection fault in " + t.CurrentFn(), Oracle: "gpf"})
	}
	return t.K.fns[idx](t, arg)
}

// Field returns the address of the i-th 64-bit field of the object at base —
// the moral equivalent of &obj->field.
func Field(base trace.Addr, i int) trace.Addr {
	return base + trace.Addr(i*kmem.WordSize)
}

// PerCPUAlloc allocates a per-CPU variable of n words per CPU and returns a
// handle (the base of CPU 0's copy). Use Task.ThisCPUAddr to resolve the
// running CPU's copy — and note that resolving it early and migrating is
// exactly the behaviour behind Table 4 bug #6.
func (k *Kernel) PerCPUAlloc(n int) trace.Addr {
	base := k.Mem.AllocZeroed(n * NrCPU)
	k.percpuRanges = append(k.percpuRanges, percpuRange{
		base: base,
		end:  base + trace.Addr(n*NrCPU*kmem.WordSize),
	})
	return base
}

// percpuRange is one per-CPU allocation's address span (all CPUs' copies).
type percpuRange struct {
	base, end trace.Addr
}

// IsPerCPU reports whether addr lies inside a per-CPU allocation made by
// PerCPUAlloc since the last Reset. Profiling tags matching accesses with
// trace.AccessEvent.PerCPU so hint calculation can mark migration-sensitive
// pairs.
func (k *Kernel) IsPerCPU(addr trace.Addr) bool {
	for _, r := range k.percpuRanges {
		if addr >= r.base && addr < r.end {
			return true
		}
	}
	return false
}

// ThisCPUAddr resolves a per-CPU handle for the CPU the task currently runs
// on.
func (t *Task) ThisCPUAddr(handle trace.Addr, words int) trace.Addr {
	return handle + trace.Addr(t.CPU()*words*kmem.WordSize)
}
