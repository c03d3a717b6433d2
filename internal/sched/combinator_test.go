package sched

import (
	"fmt"
	"testing"
)

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

// TestCombinatorDispatchZeroAlloc pins the migration-aware dispatch path
// as allocation-free: once a MigrateAt-wrapped breakpoint is constructed,
// consulting it at a scheduling point must not allocate — the fuzzer
// crosses this path on every yield of every migration-annotated MTI run.
func TestCombinatorDispatchZeroAlloc(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 1 << 30, Pos: PosBefore, ToTask: 1}
	m := &MigrateAt{Inner: bp, Task: 1, ToCPU: 0}
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
		t.Fatalf("MigrateAt dispatch allocates %.1f times per yield, want 0", allocs)
	}
}

// BenchmarkCombinatorDispatch measures the MigrateAt-wrapped breakpoint
// consult on the no-switch fast path (the overwhelmingly common case in a
// campaign).
func BenchmarkCombinatorDispatch(b *testing.B) {
	bp := &Breakpoint{FromTask: 0, Instr: 1 << 30, Pos: PosBefore, ToTask: 1}
	m := &MigrateAt{Inner: bp, Task: 1, ToCPU: 0}
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
