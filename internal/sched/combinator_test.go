package sched

import (
	"fmt"
	"testing"

	"ozz/internal/trace"
)

// TestOnNthOccurrence: the predicate latches on from the n-th sighting of
// the instruction and stays true afterwards, on any task.
func TestOnNthOccurrence(t *testing.T) {
	p := OnNthOccurrence(5, 2)
	s := NewSession(Sequential{})
	tk := s.Spawn(0, 0, func(h *Task) {})
	if p(tk, 5) {
		t.Fatal("held on first occurrence with n=2")
	}
	if p(tk, 7) {
		t.Fatal("held on a different instruction")
	}
	if !p(tk, 5) {
		t.Fatal("did not hold on second occurrence")
	}
	if !p(tk, 9) {
		t.Fatal("did not stay latched after the n-th occurrence")
	}
	s.Run()

	// n <= 0 means 1.
	q := OnNthOccurrence(3, 0)
	s2 := NewSession(Sequential{})
	tk2 := s2.Spawn(0, 0, func(h *Task) {})
	if !q(tk2, 3) {
		t.Fatal("n=0 should latch on the first occurrence")
	}
	s2.Run()
}

// TestOnTaskCPUAndOnTask: CPU- and identity-based predicates follow live
// session state, including migrations; an unspawned task never matches.
func TestOnTaskCPUAndOnTask(t *testing.T) {
	s := NewSession(Sequential{})
	var results []bool
	s.Spawn(0, 0, func(h *Task) {
		on0 := OnTaskCPU(0, 0)
		results = append(results, on0(h, 1))             // task 0 on CPU 0
		results = append(results, OnTaskCPU(0, 1)(h, 1)) // wrong CPU
		results = append(results, OnTaskCPU(9, 0)(h, 1)) // never spawned
		h.Migrate(1)
		results = append(results, on0(h, 1)) // moved away
		results = append(results, OnTask(0)(h, 1))
		results = append(results, OnTask(1)(h, 1))
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []bool{true, false, false, false, true, false}
	if fmt.Sprint(results) != fmt.Sprint(want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
}

// TestPredicateCombinators: And/Not compose, and And() with no operands
// always holds.
func TestPredicateCombinators(t *testing.T) {
	yes := Predicate(func(*Task, trace.InstrID) bool { return true })
	no := Predicate(func(*Task, trace.InstrID) bool { return false })
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"and-empty", And(), true},
		{"and-true", And(yes, yes), true},
		{"and-mixed", And(yes, no), false},
		{"not", Not(no), true},
		{"not-not", Not(Not(no)), false},
	}
	for _, c := range cases {
		if got := c.p(nil, 0); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestGuardedPolicy: the inner policy is consulted only at points where the
// predicate holds — here a breakpoint that would fire at instruction 5 is
// suppressed until the guard's instruction 8 has been seen.
func TestGuardedPolicy(t *testing.T) {
	var log []string
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosBefore, ToTask: 1}
	g := &Guarded{Inner: bp, When: OnNthOccurrence(8, 1)}
	s := NewSession(g)
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(5) // guard not yet satisfied: no switch
		log = append(log, "a5-early")
		h.Yield(8) // satisfies the guard
		log = append(log, "a8")
		h.Yield(5) // now the breakpoint fires
		log = append(log, "a5-late")
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		log = append(log, "b")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []string{"a5-early", "a8", "b", "a5-late"}
	if fmt.Sprint(log) != fmt.Sprint(want) || !bp.Fired {
		t.Fatalf("order %v (fired=%v), want %v", log, bp.Fired, want)
	}
}

// TestMigrateAtOnSwitch: when the inner breakpoint switches (PosBefore),
// the target task is moved to the destination CPU before control
// transfers, and the move is counted exactly once.
func TestMigrateAtOnSwitch(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosBefore, ToTask: 1}
	m := &MigrateAt{Inner: bp, Task: 1, ToCPU: 0}
	s := NewSession(m)
	var observed []int
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(5)
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		observed = append(observed, h.CPU)
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if fmt.Sprint(observed) != "[0]" {
		t.Fatalf("observer ran on CPUs %v, want [0]", observed)
	}
	if m.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", m.Migrations)
	}
}

// TestMigrateAtOnArmedSwitch: a PosAfter breakpoint arms the switch instead
// of performing it; MigrateAt must migrate at the arming point too (the
// switch is then taken at the task's next scheduling point).
func TestMigrateAtOnArmedSwitch(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosAfter, ToTask: 1}
	m := &MigrateAt{Inner: bp, Task: 1, ToCPU: 0}
	s := NewSession(m)
	var observed []int
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(5)
		h.Yield(6)
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		observed = append(observed, h.CPU)
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if fmt.Sprint(observed) != "[0]" {
		t.Fatalf("observer ran on CPUs %v, want [0]", observed)
	}
	if m.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", m.Migrations)
	}
}

// TestMigrateAtNoop: a move to the CPU the task already occupies is neither
// performed nor counted, and an inner policy that never acts never
// migrates anything.
func TestMigrateAtNoop(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosBefore, ToTask: 1}
	m := &MigrateAt{Inner: bp, Task: 1, ToCPU: 1} // task 1 already on CPU 1
	s := NewSession(m)
	s.Spawn(0, 0, func(h *Task) { h.Yield(5) })
	s.Spawn(1, 1, func(h *Task) { h.Yield(2) })
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if m.Migrations != 0 {
		t.Fatalf("Migrations = %d, want 0 (already on destination CPU)", m.Migrations)
	}

	quiet := &MigrateAt{Inner: Sequential{}, Task: 0, ToCPU: 3}
	s2 := NewSession(quiet)
	s2.Spawn(0, 0, func(h *Task) { h.Yield(1); h.Yield(2) })
	if aborted := s2.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if quiet.Migrations != 0 {
		t.Fatalf("Migrations = %d, want 0 (inner policy never acted)", quiet.Migrations)
	}
}

// TestCombinatorDispatchZeroAlloc pins the predicate-combinator dispatch
// path as allocation-free: once a guarded policy is constructed, consulting
// it at a scheduling point must not allocate — the fuzzer crosses this path
// on every yield of every MTI run.
func TestCombinatorDispatchZeroAlloc(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 1 << 30, Pos: PosBefore, ToTask: 1}
	g := &Guarded{Inner: bp, When: And(OnTask(0), Not(OnNthOccurrence(1<<30, 1)))}
	m := &MigrateAt{Inner: g, Task: 1, ToCPU: 0}
	s := NewSession(m)
	var allocs float64
	s.Spawn(0, 0, func(h *Task) {
		allocs = testing.AllocsPerRun(100, func() {
			m.OnYield(h, 7)
		})
	})
	s.Spawn(1, 1, func(h *Task) {})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if allocs != 0 {
		t.Fatalf("combinator dispatch allocates %.1f times per yield, want 0", allocs)
	}
}

// BenchmarkCombinatorDispatch measures the guarded-policy consult on the
// no-switch fast path (the overwhelmingly common case in a campaign).
func BenchmarkCombinatorDispatch(b *testing.B) {
	bp := &Breakpoint{FromTask: 0, Instr: 1 << 30, Pos: PosBefore, ToTask: 1}
	g := &Guarded{Inner: bp, When: And(OnTask(0), Not(OnNthOccurrence(1<<30, 1)))}
	m := &MigrateAt{Inner: g, Task: 1, ToCPU: 0}
	s := NewSession(m)
	s.Spawn(0, 0, func(h *Task) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.OnYield(h, 7)
		}
	})
	s.Spawn(1, 1, func(h *Task) {})
	if aborted := s.Run(); aborted != nil {
		b.Fatalf("aborted: %v", aborted)
	}
}
