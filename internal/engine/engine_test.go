package engine

import (
	"slices"
	"testing"

	"ozz/internal/kernel"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// impl is a synthetic syscall implementation.
type impl = func(t *kernel.Task, args []uint64) uint64

// synth is a synthetic module for white-box tests: its defs name no
// module, so the injected instance serves them, and call number i runs
// fns[i].
type synth struct {
	defs map[string]*syzlang.SyscallDef
	fns  []impl
}

// newSynth numbers the implementations in name order.
func newSynth(impls map[string]impl) *synth {
	s := &synth{defs: map[string]*syzlang.SyscallDef{}}
	names := make([]string, 0, len(impls))
	for name := range impls {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s.defs[name] = &syzlang.SyscallDef{Name: name, Nr: len(s.fns)}
		s.fns = append(s.fns, impls[name])
	}
	return s
}

// Call implements modules.Instance.
func (s *synth) Call(nr int, t *kernel.Task, args []uint64) uint64 { return s.fns[nr](t, args) }

// build is the buildFunc injecting s.
func (s *synth) build(*kernel.Kernel) modules.Instance { return s }

// def returns the def of the named call.
func (s *synth) def(name string) *syzlang.SyscallDef { return s.defs[name] }

// prog builds a one-call program of the named call.
func (s *synth) prog(name string) *syzlang.Program {
	return &syzlang.Program{Calls: []syzlang.Call{{Def: s.def(name)}}}
}

// TestCrashPanicRecovered: a syscall panicking with *kernel.Crash is the
// kernel's crash channel — the engine must recover it into the result.
func TestCrashPanicRecovered(t *testing.T) {
	e := New()
	m := newSynth(map[string]impl{
		"boom": func(tk *kernel.Task, _ []uint64) uint64 {
			panic(&kernel.Crash{Title: "kernel BUG in boom", Oracle: "assert"})
		},
	})
	res := e.run(Config{Instrumented: true}, OOO{}, Request{Prog: m.prog("boom")}, m.build)
	if res.Crash == nil || res.Crash.Title != "kernel BUG in boom" {
		t.Fatalf("crash not recovered: %+v", res)
	}
}

// TestNonCrashPanicSurfaces: a syscall panicking with anything other than
// *kernel.Crash / *sched.Deadlock is a genuine bug in the simulator — it
// must escape the engine as a harness error, never become a
// silently-dropped (or worse, recorded) report. The baselines used to
// swallow these; the engine boundary forbids it for every strategy.
func TestNonCrashPanicSurfaces(t *testing.T) {
	e := New()
	m := newSynth(map[string]impl{
		"oops": func(tk *kernel.Task, _ []uint64) uint64 {
			panic("plain string panic: simulator bug")
		},
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("non-crash panic was swallowed by the engine")
		}
		if s, ok := v.(string); !ok || s != "plain string panic: simulator bug" {
			t.Fatalf("panic value mangled: %v", v)
		}
	}()
	e.run(Config{Instrumented: true}, OOO{}, Request{Prog: m.prog("oops")}, m.build)
	t.Fatal("run returned instead of panicking")
}

// TestConfigNormalize: a zero Config runs under LKMM, the paper's model.
func TestConfigNormalize(t *testing.T) {
	c := Config{}
	c.normalize()
	if c.Model != memmodel.LKMM {
		t.Fatal("a zero Config does not run under LKMM")
	}
}

// TestKernelRecycling: sequential runs reuse the idle kernel, and the
// counters expose the recycle rate.
func TestKernelRecycling(t *testing.T) {
	e := New()
	m := newSynth(map[string]impl{
		"nop": func(tk *kernel.Task, _ []uint64) uint64 { return 0 },
	})
	for i := 0; i < 5; i++ {
		res := e.run(Config{Instrumented: true}, OOO{}, Request{Prog: m.prog("nop")}, m.build)
		if res.Crash != nil || res.Deadlock != nil {
			t.Fatalf("run %d aborted: %+v", i, res)
		}
	}
	recycled, built := e.KernelCounters()
	if built != 1 || recycled != 4 {
		t.Fatalf("counters = (recycled %d, built %d), want (4, 1)", recycled, built)
	}
	if rate := e.RecycleRate(); rate != 0.8 {
		t.Fatalf("recycle rate = %v, want 0.8", rate)
	}
}

// TestMissingImplReturnsENOSYS: a call with no implementation fails with
// -ENOSYS instead of silently succeeding.
func TestMissingImplReturnsENOSYS(t *testing.T) {
	e := New()
	m := newSynth(nil)
	p := &syzlang.Program{Calls: []syzlang.Call{{Def: &syzlang.SyscallDef{Name: "nosuchcall", Module: "nosuchmodule"}}}}
	res := e.run(Config{Instrumented: true}, OOO{}, Request{Prog: p}, m.build)
	if res.Returns[0] != enosys {
		t.Fatalf("missing impl returned %#x, want ENOSYS", res.Returns[0])
	}
}

// TestResultCovSurvivesRecycling: a result's coverage is its own copy. A
// later run on the recycled kernel clears and refills the kernel's edge
// set, and must leave the earlier result's edges as they were.
func TestResultCovSurvivesRecycling(t *testing.T) {
	e := New()
	touch := func(sites ...trace.InstrID) impl {
		return func(tk *kernel.Task, _ []uint64) uint64 {
			a := tk.Kzalloc(1)
			for _, s := range sites {
				tk.Store(s, a, 1)
			}
			return 0
		}
	}
	m := newSynth(map[string]impl{"a": touch(1, 2, 3), "b": touch(7, 8)})
	first := e.run(Config{Instrumented: true}, OOO{}, Request{Prog: m.prog("a")}, m.build)
	want := slices.Clone(first.Cov)
	if len(want) < 3 {
		t.Fatalf("coverage %v: want at least 3 edges", want)
	}
	var later *Result
	for i := 0; i < 3; i++ {
		later = e.run(Config{Instrumented: true}, OOO{}, Request{Prog: m.prog("b")}, m.build)
	}
	if recycled, _ := e.KernelCounters(); recycled == 0 {
		t.Fatal("no run recycled a kernel")
	}
	if slices.Equal(later.Cov, want) {
		t.Fatal("the later program covered the same edges; the test needs distinct coverage")
	}
	if !slices.Equal(first.Cov, want) {
		t.Fatalf("first result's coverage changed after recycling: %v, want %v", first.Cov, want)
	}
}

// TestPairRunReturnsStartZeroed: a pair run's call results live in the
// recycled runner, and a call whose resource producer has not run yet
// must read 0, not a result an earlier run left behind. Call 1 takes call
// 0's resource; the first run executes call 0 in its prefix, the second
// holds it back as call I, so call 1's prefix execution must see 0.
func TestPairRunReturnsStartZeroed(t *testing.T) {
	e := New()
	var seen []uint64
	m := newSynth(map[string]impl{
		"mk":  func(*kernel.Task, []uint64) uint64 { return 7 },
		"use": func(_ *kernel.Task, args []uint64) uint64 { seen = append(seen, args[0]); return 0 },
	})
	p := &syzlang.Program{Calls: []syzlang.Call{
		{Def: m.def("mk")},
		{Def: m.def("use"), Args: []syzlang.Arg{{Res: true, Ref: 0}}},
		{Def: m.def("mk")},
	}}
	cfg := Config{Instrumented: true}
	e.run(cfg, Interleave{}, Request{Prog: p, I: 1, J: 2}, m.build)
	e.run(cfg, Interleave{}, Request{Prog: p, I: 0, J: 2}, m.build)
	if !slices.Equal(seen, []uint64{7, 0}) {
		t.Fatalf("use saw %v, want [7 0]", seen)
	}
}

// TestPairTasksOwnTheirArgs: the pair's two tasks interleave mid-call, so
// each must read its arguments from its own recycled slice; a shared one
// would hand a task the other call's arguments after a switch.
func TestPairTasksOwnTheirArgs(t *testing.T) {
	e := New()
	got := map[uint64][]uint64{}
	echo := func(tk *kernel.Task, args []uint64) uint64 {
		a := tk.Kzalloc(1)
		for i := 0; i < 8; i++ {
			tk.Store(trace.InstrID(i+1), a, 1) // a scheduling point each
			got[args[0]] = append(got[args[0]], args[0])
		}
		return 0
	}
	m := newSynth(map[string]impl{"echo": echo})
	def := m.def("echo")
	p := &syzlang.Program{Calls: []syzlang.Call{
		{Def: def, Args: []syzlang.Arg{{Val: 1}}},
		{Def: def, Args: []syzlang.Arg{{Val: 2}}},
	}}
	res := e.run(Config{Instrumented: true}, Interleave{}, Request{Prog: p, I: 0, J: 1, Seed: 1}, m.build)
	if res.Crash != nil || res.Deadlock != nil {
		t.Fatalf("run aborted: %+v", res)
	}
	if len(got[1]) != 8 || len(got[2]) != 8 {
		t.Fatalf("calls read args %v, want 8 reads of 1 and 8 of 2", got)
	}
}
