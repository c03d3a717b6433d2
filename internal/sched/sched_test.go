package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ozz/internal/trace"
)

// TestSequentialOrder: Sequential runs tasks to completion in spawn order.
func TestSequentialOrder(t *testing.T) {
	var log []int
	s := NewSession(Sequential{})
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(i, 0, func(h *Task) {
			h.Yield(1)
			log = append(log, i)
			h.Yield(2)
			log = append(log, i+10)
		})
	}
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []int{0, 10, 1, 11, 2, 12}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestBreakpointBefore: the switch happens before the matched instruction
// executes.
func TestBreakpointBefore(t *testing.T) {
	var log []string
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosBefore, ToTask: 1}
	s := NewSession(bp)
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(1)
		log = append(log, "a1")
		h.Yield(5)
		log = append(log, "a5")
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		log = append(log, "b")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []string{"a1", "b", "a5"}
	if fmt.Sprint(log) != fmt.Sprint(want) || !bp.Fired {
		t.Fatalf("order %v (fired=%v), want %v", log, bp.Fired, want)
	}
}

// TestBreakpointAfter: the switch happens after the matched instruction
// executes (at the task's next scheduling point).
func TestBreakpointAfter(t *testing.T) {
	var log []string
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosAfter, ToTask: 1}
	s := NewSession(bp)
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(5)
		log = append(log, "a5")
		h.Yield(6)
		log = append(log, "a6")
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		log = append(log, "b")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []string{"a5", "b", "a6"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestBreakpointOccurrence: the Nth execution of the instruction matches.
func TestBreakpointOccurrence(t *testing.T) {
	var log []string
	bp := &Breakpoint{FromTask: 0, Instr: 5, Occurrence: 3, Pos: PosBefore, ToTask: 1}
	s := NewSession(bp)
	s.Spawn(0, 0, func(h *Task) {
		for i := 0; i < 4; i++ {
			h.Yield(5)
			log = append(log, fmt.Sprintf("a%d", i))
		}
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		log = append(log, "b")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []string{"a0", "a1", "b", "a2", "a3"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestBreakpointNotFired: a breakpoint on an unreached instruction leaves
// Fired false and both tasks complete.
func TestBreakpointNotFired(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 999, Pos: PosBefore, ToTask: 1}
	s := NewSession(bp)
	done := 0
	s.Spawn(0, 0, func(h *Task) { h.Yield(1); done++ })
	s.Spawn(1, 1, func(h *Task) { h.Yield(1); done++ })
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if bp.Fired || done != 2 {
		t.Fatalf("fired=%v done=%d", bp.Fired, done)
	}
}

// TestCrashAbortsSession: a panicking task aborts the session; the peer
// unwinds and Run returns the panic value.
func TestCrashAbortsSession(t *testing.T) {
	bp := &Breakpoint{FromTask: 0, Instr: 5, Pos: PosBefore, ToTask: 1}
	s := NewSession(bp)
	reachedTail := false
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(5) // switch to task 1, which crashes
		reachedTail = true
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(1)
		panic("simulated kernel crash")
	})
	aborted := s.Run()
	if aborted != "simulated kernel crash" {
		t.Fatalf("aborted = %v", aborted)
	}
	if reachedTail {
		t.Fatal("suspended task must unwind, not resume, after the abort")
	}
}

// TestBlockSpinHandoff: a spin-blocked task lets the peer run and retries.
func TestBlockSpinHandoff(t *testing.T) {
	locked := true
	var log []string
	s := NewSession(Sequential{})
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(1)
		for locked {
			h.BlockSpin()
		}
		h.ClearSpin()
		log = append(log, "acquired")
	})
	s.Spawn(1, 1, func(h *Task) {
		h.Yield(2)
		locked = false
		log = append(log, "released")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []string{"released", "acquired"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestDeadlockDetected: a task spinning with no peer to release it aborts
// with a Deadlock.
func TestDeadlockDetected(t *testing.T) {
	s := NewSession(Sequential{})
	s.Spawn(0, 0, func(h *Task) {
		for {
			h.BlockSpin()
		}
	})
	aborted := s.Run()
	if _, ok := aborted.(*Deadlock); !ok {
		t.Fatalf("expected deadlock, got %v", aborted)
	}
}

// TestSpinLimitLivelock: two tasks spinning on each other forever hit the
// spin limit.
func TestSpinLimitLivelock(t *testing.T) {
	s := NewSession(Sequential{})
	for i := 0; i < 2; i++ {
		s.Spawn(i, i, func(h *Task) {
			for {
				h.BlockSpin()
			}
		})
	}
	aborted := s.Run()
	if _, ok := aborted.(*Deadlock); !ok {
		t.Fatalf("expected deadlock/livelock, got %v", aborted)
	}
}

// TestDynamicSpawn: a running task can spawn another (fork), which is then
// scheduled.
func TestDynamicSpawn(t *testing.T) {
	var log []string
	s := NewSession(Sequential{})
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(1)
		log = append(log, "parent")
		h.session.Spawn(1, 1, func(h2 *Task) {
			h2.Yield(1)
			log = append(log, "child")
		})
		h.Yield(2)
		log = append(log, "parent2")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	want := []string{"parent", "parent2", "child"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestRandomPolicyDeterministic: the same seed yields the same schedule.
func TestRandomPolicyDeterministic(t *testing.T) {
	run := func(seed int64) string {
		var log []string
		s := NewSession(&Random{Seed: seed, Period: 2})
		for i := 0; i < 3; i++ {
			i := i
			s.Spawn(i, i, func(h *Task) {
				for j := 0; j < 5; j++ {
					h.Yield(trace.InstrID(j + 1))
					log = append(log, fmt.Sprintf("%d.%d", i, j))
				}
			})
		}
		if aborted := s.Run(); aborted != nil {
			t.Fatalf("aborted: %v", aborted)
		}
		return fmt.Sprint(log)
	}
	if run(1) != run(1) {
		t.Fatal("same seed must give the same schedule")
	}
	if run(1) == run(2) && run(3) == run(1) {
		t.Fatal("different seeds should usually differ")
	}
}

// TestMigrate: Migrate changes the CPU visible through the handle.
func TestMigrate(t *testing.T) {
	s := NewSession(Sequential{})
	var cpus []int
	s.Spawn(0, 1, func(h *Task) {
		cpus = append(cpus, h.CPU)
		h.Migrate(3)
		cpus = append(cpus, h.CPU)
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if fmt.Sprint(cpus) != "[1 3]" {
		t.Fatalf("cpus = %v", cpus)
	}
}

// TestYieldCount: sessions count scheduling points.
func TestYieldCount(t *testing.T) {
	s := NewSession(Sequential{})
	s.Spawn(0, 0, func(h *Task) {
		for i := 0; i < 7; i++ {
			h.Yield(1)
		}
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if s.Yields() != 7 {
		t.Fatalf("yields = %d, want 7", s.Yields())
	}
}

// TestNoGoroutineLeak: sessions must not leak goroutines — a fuzzer runs
// millions of them. Both clean completions and aborted (crashing) sessions
// must unwind every task's carrier, and closing a session stops the
// carriers it keeps.
func TestNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		s := NewSession(Sequential{})
		for id := 0; id < 3; id++ {
			id := id
			s.Spawn(id, id, func(h *Task) {
				h.Yield(1)
				if id == 2 && i%2 == 0 {
					panic("boom") // aborting path
				}
				h.Yield(2)
			})
		}
		s.Run()
		s.Close()
	}
	// Let unwinding goroutines finish.
	for try := 0; try < 100; try++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestCarriersBounded: one session, Reset for 200 clean, crashing,
// deadlocking and oversized runs, reuses its slots' carriers (carriers
// started stay within the slots plus the oversized runs' extra tasks),
// stops the carriers of tasks past its slots once they are done, and
// reports each run's own outcome; Close then stops the rest.
func TestCarriersBounded(t *testing.T) {
	before := runtime.NumGoroutine()
	started := carriersStarted.Load()
	s := new(Session)
	const wide = 20
	slots := uint64(len(s.slots))
	extra := uint64(0)
	for i := 0; i < 200; i++ {
		s.Reset(&Random{Seed: int64(i), Period: 2})
		tasks, entered := 3, 0
		if i%50 == 49 {
			tasks = wide // more tasks than the session has slots
			extra += wide - slots
		}
		for id := 0; id < tasks; id++ {
			id := id
			s.Spawn(id, 0, func(h *Task) {
				// A task takes a carrier when it first runs, so every task
				// of the session waits here until all have one: the wide
				// runs then hold more carriers than the slots at once.
				for entered++; entered < tasks; {
					h.BlockSpin()
				}
				h.ClearSpin()
				h.Yield(1)
				switch {
				case id == 2 && i%3 == 1:
					panic("boom")
				case id == 0 && i%3 == 2:
					for {
						h.BlockSpin() // never released: deadlock
					}
				}
				h.Yield(2)
			})
		}
		aborted := s.Run()
		switch _, deadlock := aborted.(*Deadlock); {
		case i%3 == 1 && aborted != "boom":
			t.Fatalf("session %d: aborted = %v, want boom", i, aborted)
		case i%3 == 2 && !deadlock:
			t.Fatalf("session %d: aborted = %v, want a deadlock", i, aborted)
		case i%3 == 0 && aborted != nil:
			t.Fatalf("session %d: aborted = %v", i, aborted)
		}
		if n := runtime.NumGoroutine(); n > before+len(s.slots) {
			t.Fatalf("session %d: %d goroutines, want at most the %d slot carriers over %d", i, n, len(s.slots), before)
		}
	}
	if n := carriersStarted.Load() - started; n > slots+extra {
		t.Fatalf("started %d carriers for 200 runs of one session, want <= %d", n, slots+extra)
	}
	s.Close()
	for try := 0; runtime.NumGoroutine() > before; try++ {
		if try == 100 {
			t.Fatalf("%d goroutines left after Close, want %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// switchingSession resets s for one two-task run that switches mid-body
// and, in every fourth round, crashes, runs it, and returns an error
// describing any wrong outcome.
func switchingSession(s *Session, round int) error {
	var log []string
	s.Reset(&Breakpoint{FromTask: 0, Instr: 5, Pos: PosBefore, ToTask: 1})
	s.Spawn(0, 0, func(h *Task) {
		h.Yield(5) // switch to task 1
		log = append(log, "a")
	})
	s.Spawn(1, 1, func(h *Task) {
		log = append(log, "b")
		h.Yield(1)
		if round%4 == 3 {
			panic("boom")
		}
	})
	aborted := s.Run()
	want, wantAborted := "[b a]", any(nil)
	if round%4 == 3 {
		want, wantAborted = "[b]", "boom"
	}
	if aborted != wantAborted || fmt.Sprint(log) != want {
		return fmt.Errorf("round %d: aborted %v, order %v; want %v, %s", round, aborted, log, wantAborted, want)
	}
	return nil
}

// TestSessionAcrossGoroutines: a session run on one goroutine is reset
// and run on another, and the carriers its tasks ran on are resumed from
// there, mid-body switches and aborts included — an engine runner moves
// between pool workers this way; then several goroutines run sessions of
// their own at once. Run it under -race: handing a session over must
// order every access to it, its tasks and their carriers.
func TestSessionAcrossGoroutines(t *testing.T) {
	started := carriersStarted.Load()
	s := new(Session)
	defer s.Close()
	for i := 0; i < 20; i++ {
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			err = switchingSession(s, i)
		}()
		<-done
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := carriersStarted.Load() - started; n > 2 {
		t.Fatalf("started %d carriers for 20 two-task runs on fresh goroutines, want <= 2", n)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := new(Session)
			defer s.Close()
			for i := 0; i < 50; i++ {
				if err := switchingSession(s, i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFirstTaskNotSpawned: a policy whose first task was never spawned
// panics in Run rather than reporting a clean session that ran nothing.
func TestFirstTaskNotSpawned(t *testing.T) {
	s := NewSession(&Breakpoint{FromTask: 7, Instr: 1, ToTask: 0})
	s.Spawn(0, 0, func(*Task) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Run with an unspawned first task did not panic")
		}
	}()
	s.Run()
}

// TestDuplicateSpawnPanics: a task id names one task per session, whether
// the duplicate comes before Run or from a running task.
func TestDuplicateSpawnPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: duplicate Spawn did not panic", what)
			}
		}()
		f()
	}
	s := NewSession(Sequential{})
	s.Spawn(1, 0, func(*Task) {})
	mustPanic("before Run", func() { s.Spawn(1, 1, func(*Task) {}) })

	s = NewSession(Sequential{})
	s.Spawn(0, 0, func(h *Task) { h.session.Spawn(0, 0, func(*Task) {}) })
	if aborted := s.Run(); aborted == nil || !strings.Contains(fmt.Sprint(aborted), "duplicate task id 0") {
		t.Fatalf("mid-session duplicate: aborted = %v", aborted)
	}
}

// TestByID: the id lookup finds each task whatever the spawn order, and
// nothing for an id that was never spawned.
func TestByID(t *testing.T) {
	s := NewSession(Sequential{})
	for _, id := range []int{2, 0, 5, 1} {
		s.Spawn(id, id, func(*Task) {})
	}
	for _, id := range []int{2, 0, 5, 1} {
		if got := s.byID(id); got == nil || got.ID != id {
			t.Fatalf("byID(%d) = %v", id, got)
		}
	}
	for _, id := range []int{-1, 3, 4, 6} {
		if got := s.byID(id); got != nil {
			t.Fatalf("byID(%d) = task %d, want nil", id, got.ID)
		}
	}
}

// onFire wraps a breakpoint and runs hook once, when the breakpoint fires,
// before the switch it asks for takes effect.
type onFire struct {
	*Breakpoint
	hook func()
}

func (p onFire) OnYield(cur *Task, instr trace.InstrID) (int, bool) {
	fired := p.Fired
	to, sw := p.Breakpoint.OnYield(cur, instr)
	if !fired && p.Fired {
		p.hook()
	}
	return to, sw
}

// TestMidSessionSpawnScheduled: a task spawned by a policy when its
// breakpoint fires — an interrupt handler modelled as its own task, say —
// is found by id — by the breakpoint's switch, by a lookup of its CPU —
// and runs.
func TestMidSessionSpawnScheduled(t *testing.T) {
	const handler = 3
	var log []string
	var s *Session
	onHandlerCPU := func() bool {
		h := s.byID(handler)
		return h != nil && h.CPU == 1
	}
	var before, after bool
	s = NewSession(onFire{
		Breakpoint: &Breakpoint{FromTask: 1, Instr: 5, Pos: PosBefore, ToTask: handler},
		hook: func() {
			before = onHandlerCPU()
			s.Spawn(handler, 1, func(h *Task) {
				h.Yield(9)
				log = append(log, "handler")
			})
			after = onHandlerCPU()
		},
	})
	s.Spawn(1, 0, func(h *Task) {
		h.Yield(5)
		log = append(log, "reorderer")
	})
	s.Spawn(2, 1, func(h *Task) {
		h.Yield(7)
		log = append(log, "observer")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if before || !after {
		t.Fatalf("handler %d on CPU 1 before/after spawn = %v/%v, want false/true", handler, before, after)
	}
	// The breakpoint switches straight to the new task; spawn order then
	// resumes the reorderer, then the observer.
	want := []string{"handler", "reorderer", "observer"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// BenchmarkSessionRun measures one two-task sequential session, reset
// for reuse the way an engine runner resets its own: the per-session cost
// of a session whose tasks run on carriers. A single-task one, such as an
// STI profile or an MTI prefix or suffix, runs inline and pays less.
func BenchmarkSessionRun(b *testing.B) {
	body := func(h *Task) {
		h.Yield(1)
		h.Yield(2)
	}
	s := new(Session)
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset(Sequential{})
		s.Spawn(0, 0, body)
		s.Spawn(1, 1, body)
		if aborted := s.Run(); aborted != nil {
			b.Fatal(aborted)
		}
	}
}

// TestSessionReuseAfterAbort: a session reset after a crashed or
// deadlocked run keeps no trace of that run: no Aborted value, no yields
// or switches, and tasks with no spin count or armed switch.
func TestSessionReuseAfterAbort(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b func(h *Task)
	}{
		{"crash",
			func(h *Task) {
				h.Yield(1)
				h.ArmSwitchAfter(1)
				h.BlockSpin()
			},
			func(h *Task) {
				h.Yield(2)
				panic("boom")
			}},
		{"deadlock",
			func(h *Task) {
				h.Yield(1)
				h.ArmSwitchAfter(1)
				for {
					h.BlockSpin()
				}
			},
			func(h *Task) {
				for {
					h.BlockSpin()
				}
			}},
	} {
		s := NewSession(Sequential{})
		a := s.Spawn(0, 0, tc.a)
		s.Spawn(1, 1, tc.b)
		if s.Run() == nil {
			t.Fatalf("%s: session did not abort", tc.name)
		}
		if s.Yields() == 0 || s.Switches() == 0 || a.spin == 0 || a.armedSwitch != 1 {
			t.Fatalf("%s: run left yields %d, switches %d, spin %d, armed %d; want all set",
				tc.name, s.Yields(), s.Switches(), a.spin, a.armedSwitch)
		}
		r := s
		r.Reset(Sequential{})
		if r.Aborted != nil || r.Yields() != 0 || r.Switches() != 0 || r.started || r.aborting {
			t.Fatalf("%s: reused session starts with Aborted %v, yields %d, switches %d, started %v, aborting %v",
				tc.name, r.Aborted, r.Yields(), r.Switches(), r.started, r.aborting)
		}
		body := func(h *Task) {
			if h.spin != 0 || h.armedSwitch != -1 || h.state != Runnable {
				t.Errorf("%s: reused task %d starts with spin %d, armed %d, state %d",
					tc.name, h.ID, h.spin, h.armedSwitch, h.state)
			}
			h.Yield(3)
		}
		r.Spawn(0, 0, body)
		r.Spawn(1, 1, body)
		if aborted := r.Run(); aborted != nil {
			t.Fatalf("%s: reused session aborted: %v", tc.name, aborted)
		}
		if r.Yields() != 2 || r.Switches() != 0 {
			t.Fatalf("%s: reused session counted %d yields, %d switches; want 2, 0", tc.name, r.Yields(), r.Switches())
		}
		r.Close()
	}
}

// TestSequentialRunsInline: a Sequential session's single task runs on
// Run's caller and starts no carrier, across 100 clean, crashing and
// deadlocking runs of fresh and reset sessions. A crash value still comes
// back from Run, and a BlockSpin with no peer still aborts with a
// *Deadlock.
func TestSequentialRunsInline(t *testing.T) {
	started := carriersStarted.Load()
	reused := new(Session)
	for i := 0; i < 100; i++ {
		s := reused
		if i%2 == 0 {
			s = new(Session)
		}
		s.Reset(Sequential{})
		ran := false
		s.Spawn(0, 0, func(h *Task) {
			ran = true
			h.Yield(1)
			switch i % 3 {
			case 1:
				panic("boom")
			case 2:
				for {
					h.BlockSpin()
				}
			}
			h.Yield(2)
		})
		aborted := s.Run()
		switch _, deadlock := aborted.(*Deadlock); {
		case !ran:
			t.Fatalf("session %d: task never ran", i)
		case i%3 == 0 && aborted != nil:
			t.Fatalf("session %d: aborted = %v", i, aborted)
		case i%3 == 1 && aborted != "boom":
			t.Fatalf("session %d: aborted = %v, want boom", i, aborted)
		case i%3 == 2 && !deadlock:
			t.Fatalf("session %d: aborted = %v, want a deadlock", i, aborted)
		}
		if s.Yields() == 0 || s.Switches() != 0 {
			t.Fatalf("session %d: %d yields, %d switches; want some, 0", i, s.Yields(), s.Switches())
		}
	}
	if n := carriersStarted.Load() - started; n != 0 {
		t.Fatalf("100 single-task sequential sessions started %d carriers, want 0", n)
	}
}

// TestInlineTaskCannotSwitch: a task running inline that spawns a peer and
// then asks to switch to it — by BlockSpin or by an armed switch — cannot
// be suspended: the session aborts with a "sched:" value, and the peer
// unwinds on its carrier without running its body.
func TestInlineTaskCannotSwitch(t *testing.T) {
	for _, tc := range []struct {
		name string
		ask  func(h *Task)
	}{
		{"BlockSpin", func(h *Task) { h.BlockSpin() }},
		{"ArmSwitchAfter", func(h *Task) {
			h.ArmSwitchAfter(1)
			h.Yield(2)
		}},
	} {
		s := NewSession(Sequential{})
		peerRan, resumed := false, false
		s.Spawn(0, 0, func(h *Task) {
			h.session.Spawn(1, 1, func(*Task) { peerRan = true })
			tc.ask(h)
			resumed = true
		})
		aborted := s.Run()
		if msg, ok := aborted.(string); !ok || !strings.HasPrefix(msg, "sched: task 0 runs inline") {
			t.Fatalf("%s: aborted = %v, want a sched: panic value", tc.name, aborted)
		}
		if peerRan || resumed {
			t.Fatalf("%s: peer ran %v, inline task resumed %v; want neither", tc.name, peerRan, resumed)
		}
		s.Close()
	}
}
