// Microbenchmarks for the hot-path primitives every campaign iteration is
// built from: OEMU store/load stepping, commit into the store-history
// ring, delayed-store flushing, scheduler yields and switches, and the
// kmem sanitizer access check. Each driver takes a *testing.B, so the same
// code backs `go test -bench Micro` (via the wrappers in
// micro_bench_test.go), perfbench's per-layer metrics and the zero-alloc
// test (both via testing.Benchmark).
package bench

import (
	"testing"

	"ozz/internal/kmem"
	"ozz/internal/memmodel"
	"ozz/internal/oemu"
	"ozz/internal/sched"
	"ozz/internal/trace"
)

// Micro names one microbenchmark driver.
type Micro struct {
	// Name is the driver's stable identifier: perfbench maps it to its
	// per-layer metric prefix, so renaming one renames a metric.
	Name string
	// Fn is the benchmark body.
	Fn func(b *testing.B)
}

// Micros returns the microbenchmark suite in fixed order.
func Micros() []Micro {
	return []Micro{
		{"oemu_step", MicroOEMUStep},
		{"oemu_commit_tracked", MicroOEMUCommitTracked},
		{"oemu_delay_flush", MicroOEMUDelayFlush},
		{"model_dispatch", MicroModelDispatch},
		{"sched_yield", MicroSchedYield},
		{"sched_switch", MicroSchedSwitch},
		{"combinator_dispatch", MicroCombinatorDispatch},
		{"kmem_check", MicroKmemCheck},
	}
}

// microEnv builds a warm emulator over unsanitized memory with n threads
// and four words of storage.
func microEnv(n int) (*oemu.OEMU, []*oemu.Thread, trace.Addr) {
	mem := kmem.New()
	mem.Sanitize = false
	em := oemu.New(mem)
	base := mem.AllocZeroed(4)
	ths := make([]*oemu.Thread, n)
	for i := range ths {
		ths[i] = em.NewThread(i)
	}
	return em, ths, base
}

// MicroOEMUStep measures the no-directive fast path one instrumented
// access pays — one plain store plus one plain load with history tracking
// off, the state every engine run without versioned loads executes in.
func MicroOEMUStep(b *testing.B) {
	em, ths, base := microEnv(1)
	em.SetHistoryTracking(false)
	t := ths[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + trace.Addr(i%4*8)
		t.Store(1, a, uint64(i), trace.Plain)
		_ = t.Load(2, a, trace.Plain)
	}
}

// MicroOEMUCommitTracked measures a store commit with history tracking on:
// memory write-through plus a store-history ring push and coherence-stamp
// update (the default direct-API path).
func MicroOEMUCommitTracked(b *testing.B) {
	_, ths, base := microEnv(1)
	t := ths[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Store(1, base+trace.Addr(i%4*8), uint64(i), trace.Plain)
	}
}

// MicroOEMUDelayFlush measures one delayed-store round trip: a store held
// in the virtual store buffer by a delay directive, then drained by an
// explicit flush. The reorder log is truncated in place each round to keep
// the loop steady-state.
func MicroOEMUDelayFlush(b *testing.B) {
	_, ths, base := microEnv(1)
	t := ths[0]
	t.Dir.DelayStoreAt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Store(1, base, uint64(i), trace.Plain)
		t.Flush()
		t.Log = t.Log[:0]
	}
}

// MicroModelDispatch measures the cost of the memory-model parameterized
// hot path under a non-default model: a delayed store, a barrier whose
// store-ordering semantics come from the compiled model table, and a
// plain load, all under x86-TSO. Guards the table-lookup dispatch design
// against regressing into interface calls or allocations.
func MicroModelDispatch(b *testing.B) {
	em, ths, base := microEnv(1)
	em.SetModel(memmodel.TSO)
	t := ths[0]
	t.Dir.DelayStoreAt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Store(1, base, uint64(i), trace.Plain)
		t.Barrier(trace.BarrierFull)
		_ = t.Load(2, base, trace.Plain)
		t.Log = t.Log[:0]
	}
}

// MicroSchedYield measures the sequential-session yield fast path — the
// scheduling point every instrumented access hits in STI and baseline
// runs, where the policy never switches.
func MicroSchedYield(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(1, 0, func(t *sched.Task) {
		for i := 0; i < b.N; i++ {
			t.Yield(1)
		}
	})
	s.Run()
}

// switchEvery is a policy that moves the run token to the other of two
// tasks at every scheduling point — the worst-case preemption rate.
type switchEvery struct{}

func (switchEvery) First(spawned int) int { return spawned }
func (switchEvery) OnYield(cur *sched.Task, _ trace.InstrID) (int, bool) {
	if cur.ID == 1 {
		return 2, true
	}
	return 1, true
}

// MicroSchedSwitch measures one full preemption: a scheduling point where
// the run token is handed to the other task (channel handoff included).
func MicroSchedSwitch(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	s := sched.NewSession(switchEvery{})
	body := func(t *sched.Task) {
		for i := 0; i < b.N/2; i++ {
			t.Yield(1)
		}
	}
	s.Spawn(1, 1, body)
	s.Spawn(2, 2, body)
	s.Run()
}

// MicroCombinatorDispatch measures a scheduling point dispatched through
// the predicate-combinator stack the Migration strategy builds
// (MigrateAt → Guarded → Breakpoint) on its non-matching fast path — the
// cost every yield pays when a migration-aware policy is armed but idle.
func MicroCombinatorDispatch(b *testing.B) {
	bp := &sched.Breakpoint{FromTask: 0, Instr: 1 << 30, Pos: sched.PosBefore, ToTask: 1}
	g := &sched.Guarded{Inner: bp, When: sched.And(sched.OnTask(0), sched.Not(sched.OnNthOccurrence(1<<30, 1)))}
	m := &sched.MigrateAt{Inner: g, Task: 1, ToCPU: 0}
	s := sched.NewSession(m)
	s.Spawn(0, 0, func(h *sched.Task) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.OnYield(h, 7)
		}
	})
	s.Spawn(1, 1, func(h *sched.Task) {})
	if aborted := s.Run(); aborted != nil {
		b.Fatalf("aborted: %v", aborted)
	}
}

// MicroKmemCheck measures one sanitized word access: the KASAN-style
// bounds/state check plus the read itself.
func MicroKmemCheck(b *testing.B) {
	mem := kmem.New()
	base := mem.AllocZeroed(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + trace.Addr(i%4*8)
		if f := mem.Check(1, a, trace.Load); f != nil {
			b.Fatal(f)
		}
		_ = mem.Read(a)
	}
}
