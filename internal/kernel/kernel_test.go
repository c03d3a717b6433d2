package kernel

import (
	"strings"
	"testing"

	"ozz/internal/sched"
	"ozz/internal/trace"
)

// runTask executes body on a fresh kernel task inside a sequential session
// and returns the recovered crash (nil if clean).
func runTask(k *Kernel, body func(t *Task)) *Crash {
	task := k.NewTask(0)
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(0, 0, func(st *sched.Task) {
		task.Bind(st)
		body(task)
	})
	switch v := s.Run().(type) {
	case nil:
		return nil
	case *Crash:
		return v
	default:
		panic(v)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(2)
		t2.Store(1, a, 42)
		if got := t2.Load(2, a); got != 42 {
			t2.Crashf("test", "got %d", got)
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestNullDerefTitle(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("some_reader")()
		t2.Load(1, 0x8)
	})
	if crash == nil || crash.Title != "BUG: unable to handle kernel NULL pointer dereference in some_reader" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestNullWriteTitle(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("fput")()
		t2.Store(1, 0x8, 0)
	})
	if crash == nil || crash.Title != "KASAN: null-ptr-deref Write in fput" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestOOBTitle(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("reader_fn")()
		a := t2.Kzalloc(2)
		t2.Load(1, Field(a, 2))
	})
	if crash == nil || crash.Title != "KASAN: slab-out-of-bounds Read in reader_fn" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestUAFTitle(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("worker")()
		a := t2.Kzalloc(1)
		t2.Kfree(a)
		t2.Store(1, a, 1)
	})
	if crash == nil || !strings.Contains(crash.Title, "use-after-free Write in worker") {
		t.Fatalf("crash = %v", crash)
	}
}

func TestWildFnPointerGPF(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("add_wait_queue")()
		t2.CallFn(1, 0xdead4ead_deadbeef, 0)
	})
	if crash == nil || crash.Title != "general protection fault in add_wait_queue" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestNullFnPointer(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("caller")()
		t2.CallFn(1, 0, 0)
	})
	if crash == nil || !strings.Contains(crash.Title, "NULL pointer dereference in caller") {
		t.Fatalf("crash = %v", crash)
	}
}

func TestRegisteredFnCall(t *testing.T) {
	k := New(2)
	fn := k.RegisterFn("double", func(t2 *Task, arg uint64) uint64 { return arg * 2 })
	crash := runTask(k, func(t2 *Task) {
		if got := t2.CallFn(1, fn, 21); got != 42 {
			t2.Crashf("test", "CallFn = %d", got)
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
	if k.FnName(fn) != "double" || k.FnName(0) != "<null>" || k.FnName(12345) != "<wild>" {
		t.Fatal("FnName lookup broken")
	}
}

func TestUninstrumentedBypassesOEMU(t *testing.T) {
	k := New(2)
	k.Instrumented = false
	crash := runTask(k, func(t2 *Task) {
		t2.OEMU().Dir.DelayStoreAt(1)
		a := t2.Kzalloc(1)
		t2.Store(1, a, 7)
		// Uninstrumented: the store committed directly; OEMU never saw
		// it.
		if t2.OEMU().PendingStores() != 0 || t2.K.Mem.Read(a) != 7 {
			t2.Crashf("test", "uninstrumented path leaked into OEMU")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestProfilingRecordsFiveTuples(t *testing.T) {
	k := New(2)
	var events int
	crash := runTask(k, func(t2 *Task) {
		t2.Prof = &trace.Buffer{}
		a := t2.Kzalloc(1)
		t2.Store(1, a, 1)
		t2.Load(2, a)
		t2.Wmb(3)
		events = t2.Prof.Len()
		accs := t2.Prof.Accesses()
		if len(accs) != 2 || accs[0].Kind != trace.Store || accs[1].Kind != trace.Load {
			t2.Crashf("test", "bad accesses: %v", accs)
		}
		bars := t2.Prof.Barriers()
		if len(bars) != 1 || bars[0].Kind != trace.BarrierStore {
			t2.Crashf("test", "bad barriers: %v", bars)
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
	if events != 3 {
		t.Fatalf("events = %d", events)
	}
}

func TestAnnotatedLoadRecordsImplicitBarrier(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		t2.Prof = &trace.Buffer{}
		a := t2.Kzalloc(1)
		t2.ReadOnce(1, a)
		bars := t2.Prof.Barriers()
		if len(bars) != 1 || bars[0].Kind != trace.BarrierLoad {
			t2.Crashf("test", "READ_ONCE must profile an implicit load barrier: %v", bars)
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	k := New(2)
	lockWord := k.Mem.AllocZeroed(1)
	shared := k.Mem.AllocZeroed(1)
	taskA, taskB := k.NewTask(0), k.NewTask(1)
	// Interleave aggressively: both tasks increment under the lock.
	s := sched.NewSession(&sched.Random{Seed: 9, Period: 2})
	body := func(task *Task) func(*sched.Task) {
		return func(st *sched.Task) {
			task.Bind(st)
			for i := 0; i < 10; i++ {
				task.SpinLock(1, lockWord, "test_lock")
				v := task.Load(2, shared)
				task.Store(3, shared, v+1)
				task.SpinUnlock(4, lockWord)
			}
		}
	}
	s.Spawn(0, 0, body(taskA))
	s.Spawn(1, 1, body(taskB))
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if got := k.Mem.Read(shared); got != 20 {
		t.Fatalf("lost update under spinlock: %d, want 20", got)
	}
}

func TestLockdepABBA(t *testing.T) {
	k := New(2)
	l1 := k.Mem.AllocZeroed(1)
	l2 := k.Mem.AllocZeroed(1)
	// Task 1 learns A->B; task 2 then attempts B->A.
	crash := runTask(k, func(t2 *Task) {
		t2.SpinLock(1, l1, "A")
		t2.SpinLock(2, l2, "B")
		t2.SpinUnlock(3, l2)
		t2.SpinUnlock(4, l1)
		t2.SpinLock(5, l2, "B")
		t2.SpinLock(6, l1, "A") // ABBA: must trip lockdep
		t2.SpinUnlock(7, l1)
		t2.SpinUnlock(8, l2)
	})
	if crash == nil || crash.Oracle != "lockdep" {
		t.Fatalf("crash = %v, want lockdep", crash)
	}
}

func TestLockdepRecursion(t *testing.T) {
	k := New(2)
	l := k.Mem.AllocZeroed(1)
	crash := runTask(k, func(t2 *Task) {
		t2.SpinLock(1, l, "A")
		t2.SpinLock(2, l, "A")
	})
	if crash == nil || !strings.Contains(crash.Title, "recursive locking") {
		t.Fatalf("crash = %v", crash)
	}
}

func TestLockdepBadUnlock(t *testing.T) {
	k := New(2)
	l := k.Mem.AllocZeroed(1)
	crash := runTask(k, func(t2 *Task) {
		t2.SpinUnlock(1, l)
	})
	if crash == nil || !strings.Contains(crash.Title, "bad unlock balance") {
		t.Fatalf("crash = %v", crash)
	}
}

func TestAtomicOps(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		if t2.AtomicIncReturn(1, a) != 1 || t2.AtomicIncReturn(1, a) != 2 {
			t2.Crashf("test", "inc_return broken")
		}
		if t2.AtomicDecReturn(2, a) != 1 {
			t2.Crashf("test", "dec_return broken")
		}
		if t2.Xchg(3, a, 10) != 1 || t2.AtomicRead(4, a) != 10 {
			t2.Crashf("test", "xchg broken")
		}
		if t2.Cmpxchg(5, a, 10, 20) != 10 || t2.AtomicRead(4, a) != 20 {
			t2.Crashf("test", "cmpxchg success broken")
		}
		if t2.Cmpxchg(5, a, 99, 30) != 20 || t2.AtomicRead(4, a) != 20 {
			t2.Crashf("test", "cmpxchg failure broken")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestBitOps(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		if t2.TestAndSetBit(1, 3, a) {
			t2.Crashf("test", "bit 3 must start clear")
		}
		if !t2.TestBit(2, 3, a) || t2.TestBit(2, 4, a) {
			t2.Crashf("test", "test_bit broken")
		}
		if !t2.TestAndSetBit(1, 3, a) {
			t2.Crashf("test", "bit 3 must now be set")
		}
		t2.ClearBit(3, 3, a)
		if t2.TestBit(2, 3, a) {
			t2.Crashf("test", "clear_bit broken")
		}
		t2.SetBit(4, 5, a)
		if !t2.TestAndClearBit(5, 5, a) || t2.TestBit(2, 5, a) {
			t2.Crashf("test", "test_and_clear broken")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestUnorderedClearBitIsDelayable(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		t2.SetBit(1, 0, a) // committed
		t2.OEMU().Dir.DelayStoreAt(2)
		t2.ClearBit(2, 0, a) // unordered: delayed
		if t2.K.Mem.Read(a) != 1 {
			t2.Crashf("test", "clear_bit must be delayable (Fig. 8)")
		}
		t2.ClearBitUnlock(3, 0, a) // release: flushes + clears
		if t2.K.Mem.Read(a) != 0 {
			t2.Crashf("test", "clear_bit_unlock must flush and commit")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestPerCPU(t *testing.T) {
	k := New(4)
	h := k.PerCPUAlloc(1)
	crash := runTask(k, func(t2 *Task) {
		a0 := t2.ThisCPUAddr(h, 1)
		t2.Store(1, a0, 7)
		if t2.Load(2, a0) != 7 {
			t2.Crashf("test", "per-cpu slot broken")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
	// A task on another CPU resolves a different slot.
	other := k.NewTask(2)
	if other.ThisCPUAddr(h, 1) == h {
		t.Fatal("per-cpu copies must differ per CPU")
	}
}

func TestCoverageEdges(t *testing.T) {
	k := New(2)
	runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		t2.Store(1, a, 1)
		t2.Store(2, a, 2)
		t2.Store(1, a, 3)
	})
	if k.Cov.Len() < 2 {
		t.Fatalf("coverage edges = %d", k.Cov.Len())
	}
}

func TestAssertAndSoftReport(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("checker")()
		t2.SoftReport("soft finding")
		t2.Assert(1 == 1, "fine")
		t2.Assert(false, "invariant broken")
	})
	if crash == nil || crash.Title != "kernel BUG: invariant broken in checker" {
		t.Fatalf("crash = %v", crash)
	}
	if len(k.Soft) != 1 || k.Soft[0] != "soft finding" {
		t.Fatalf("soft = %v", k.Soft)
	}
}

func TestSyscallReturnFlushes(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		t2.OEMU().Dir.DelayStoreAt(1)
		t2.Store(1, a, 5)
		if t2.K.Mem.Read(a) != 0 {
			t2.Crashf("test", "store must be delayed")
		}
		t2.SyscallReturn()
		if t2.K.Mem.Read(a) != 5 {
			t2.Crashf("test", "syscall return must drain the store buffer")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestSmpMbAtomicHelpers(t *testing.T) {
	k := New(2)
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(2)
		// A delayed store must not survive smp_store_mb or the
		// before/after-atomic fences.
		t2.OEMU().Dir.DelayStoreAt(1)
		t2.Store(1, Field(a, 0), 1)
		t2.SmpMbBeforeAtomic(2)
		if t2.K.Mem.Read(Field(a, 0)) != 1 {
			t2.Crashf("test", "smp_mb__before_atomic did not flush")
		}
		t2.OEMU().Dir.DelayStoreAt(3)
		t2.Store(3, Field(a, 0), 2)
		t2.SmpStoreMb(4, Field(a, 1), 9)
		if t2.K.Mem.Read(Field(a, 0)) != 2 || t2.K.Mem.Read(Field(a, 1)) != 9 {
			t2.Crashf("test", "smp_store_mb did not flush/commit")
		}
		t2.OEMU().Dir.DelayStoreAt(5)
		t2.ClearBit(5, 0, Field(a, 0))
		t2.SmpMbAfterAtomic(6)
		if t2.K.Mem.Read(Field(a, 0))&1 != 0 {
			t2.Crashf("test", "smp_mb__after_atomic did not flush the clear_bit")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}
