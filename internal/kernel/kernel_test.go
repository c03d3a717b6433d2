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
	k := New()
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
	k := New()
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("some_reader")()
		t2.Load(1, 0x8)
	})
	if crash == nil || crash.Title != "BUG: unable to handle kernel NULL pointer dereference in some_reader" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestNullWriteTitle(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("fput")()
		t2.Store(1, 0x8, 0)
	})
	if crash == nil || crash.Title != "KASAN: null-ptr-deref Write in fput" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestOOBTitle(t *testing.T) {
	k := New()
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
	k := New()
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
	k := New()
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("add_wait_queue")()
		t2.CallFn(1, 0xdead4ead_deadbeef, 0)
	})
	if crash == nil || crash.Title != "general protection fault in add_wait_queue" {
		t.Fatalf("crash = %v", crash)
	}
}

func TestNullFnPointer(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		defer t2.Enter("caller")()
		t2.CallFn(1, 0, 0)
	})
	if crash == nil || !strings.Contains(crash.Title, "NULL pointer dereference in caller") {
		t.Fatalf("crash = %v", crash)
	}
}

func TestRegisteredFnCall(t *testing.T) {
	k := New()
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
	k := New()
	k.Instrumented = false
	crash := runTask(k, func(t2 *Task) {
		t2.OEMU().Dir.DelayStoreAt(1)
		a := t2.Kzalloc(1)
		t2.Store(1, a, 7)
		// Uninstrumented: the store committed directly; OEMU never saw
		// it.
		if _, pending := t2.OEMU().PendingAt(a); pending || t2.K.Mem.Read(a) != 7 {
			t2.Crashf("test", "uninstrumented path leaked into OEMU")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

// splitEvents returns a profile's access and barrier events, each in
// recording order.
func splitEvents(b *trace.Buffer) (accs []trace.AccessEvent, bars []trace.BarrierEvent) {
	for _, e := range b.Events {
		if e.Barrier {
			bars = append(bars, e.Bar)
		} else {
			accs = append(accs, e.Acc)
		}
	}
	return accs, bars
}

func TestProfilingRecordsFiveTuples(t *testing.T) {
	k := New()
	var events int
	crash := runTask(k, func(t2 *Task) {
		t2.Prof = &trace.Buffer{}
		a := t2.Kzalloc(1)
		t2.Store(1, a, 1)
		t2.Load(2, a)
		t2.Wmb(3)
		events = t2.Prof.Len()
		accs, bars := splitEvents(t2.Prof)
		if len(accs) != 2 || accs[0].Kind != trace.Store || accs[1].Kind != trace.Load {
			t2.Crashf("test", "bad accesses: %v", accs)
		}
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
	k := New()
	crash := runTask(k, func(t2 *Task) {
		t2.Prof = &trace.Buffer{}
		a := t2.Kzalloc(1)
		t2.ReadOnce(1, a)
		_, bars := splitEvents(t2.Prof)
		if len(bars) != 1 || bars[0].Kind != trace.BarrierLoad {
			t2.Crashf("test", "READ_ONCE must profile an implicit load barrier: %v", bars)
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	k := New()
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
	k := New()
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
	k := New()
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
	k := New()
	l := k.Mem.AllocZeroed(1)
	crash := runTask(k, func(t2 *Task) {
		t2.SpinUnlock(1, l)
	})
	if crash == nil || !strings.Contains(crash.Title, "bad unlock balance") {
		t.Fatalf("crash = %v", crash)
	}
}

func TestAtomicOps(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		if t2.AtomicIncReturn(1, a) != 1 || t2.AtomicIncReturn(1, a) != 2 {
			t2.Crashf("test", "inc_return broken")
		}
		if t2.Load(2, a) != 2 {
			t2.Crashf("test", "inc_return did not store")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestBitOps(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		if t2.TestAndSetBit(1, 3, a) {
			t2.Crashf("test", "bit 3 must start clear")
		}
		if t2.Load(2, a) != 1<<3 {
			t2.Crashf("test", "test_and_set_bit set the wrong bits")
		}
		if !t2.TestAndSetBit(1, 3, a) {
			t2.Crashf("test", "bit 3 must now be set")
		}
		t2.Store(4, a, 1<<3|1<<5)
		t2.ClearBit(3, 3, a)
		if t2.Load(2, a) != 1<<5 {
			t2.Crashf("test", "clear_bit broken")
		}
		t2.ClearBitUnlock(5, 5, a)
		if t2.Load(2, a) != 0 {
			t2.Crashf("test", "clear_bit_unlock broken")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

// TestTestAndSetBitLock: test_and_set_bit_lock returns the old bit and has
// acquire semantics only, so unlike the fully ordered test_and_set_bit it
// leaves an earlier delayed store in the store buffer.
func TestTestAndSetBitLock(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(2)
		t2.OEMU().Dir.DelayStoreAt(1)
		t2.Store(1, Field(a, 1), 7)
		if t2.TestAndSetBitLock(2, 0, a) {
			t2.Crashf("test", "bit 0 must start clear")
		}
		if t2.K.Mem.Read(a) != 1 {
			t2.Crashf("test", "test_and_set_bit_lock did not set the bit")
		}
		if t2.K.Mem.Read(Field(a, 1)) != 0 {
			t2.Crashf("test", "test_and_set_bit_lock must not flush an earlier store")
		}
		if !t2.TestAndSetBitLock(2, 0, a) {
			t2.Crashf("test", "bit 0 must now be set")
		}
		t2.TestAndSetBit(3, 1, a)
		if t2.K.Mem.Read(Field(a, 1)) != 7 {
			t2.Crashf("test", "test_and_set_bit must flush an earlier store")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

func TestUnorderedClearBitIsDelayable(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		a := t2.Kzalloc(1)
		t2.Store(1, a, 1) // committed
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
	k := New()
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
	k := New()
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
	k := New()
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
	k := New()
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
