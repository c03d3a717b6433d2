package engine

import (
	"testing"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// TestPlanCacheHitMiss: the first lookup of a spec compiles and counts a
// miss; repeats return the same shared plan and count hits.
func TestPlanCacheHitMiss(t *testing.T) {
	e := New()
	spec := &ReorderSpec{Test: hints.StoreBarrierTest, Sites: []trace.InstrID{7, 3}}
	p1 := e.plans.plan(spec, memmodel.LKMM)
	p2 := e.plans.plan(spec, memmodel.LKMM)
	if p1 != p2 {
		t.Fatal("repeat lookup did not return the cached plan")
	}
	if hits, misses := e.PlanCacheCounters(); hits != 1 || misses != 1 {
		t.Fatalf("counters = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if got := p1.DelaySites(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("plan not canonicalized: %v", got)
	}
	if p1.HasReads() {
		t.Fatal("store-barrier spec compiled into read directives")
	}
}

// TestPlanCacheKeyDiscrimination: changing the test kind, the site list
// or the model must each produce a distinct cache entry — never a false
// hit on a stale plan — while two programs with the same spec share one.
func TestPlanCacheKeyDiscrimination(t *testing.T) {
	e := New()
	spec := &ReorderSpec{Test: hints.StoreBarrierTest, Sites: []trace.InstrID{5}}
	p := e.plans.plan(spec, memmodel.LKMM)

	variants := []struct {
		name string
		spec *ReorderSpec
	}{
		{"other test kind", &ReorderSpec{Test: hints.LoadBarrierTest, Sites: []trace.InstrID{5}}},
		{"other sites", &ReorderSpec{Test: hints.StoreBarrierTest, Sites: []trace.InstrID{6}}},
	}
	for _, v := range variants {
		if got := e.plans.plan(v.spec, memmodel.LKMM); got == p {
			t.Errorf("%s: lookup returned the unrelated cached plan", v.name)
		}
	}
	// A different memory model is its own cache entry: the same spec under
	// armv8 must not return the LKMM-compiled plan.
	if got := e.plans.plan(spec, memmodel.ARMv8); got == p {
		t.Error("other model: lookup returned the LKMM-cached plan")
	}
	if hits, misses := e.PlanCacheCounters(); hits != 0 || misses != 4 {
		t.Errorf("counters = (%d hits, %d misses), want (0, 4)", hits, misses)
	}
	// Two programs with the same spec share one plan: compiling a plan
	// never reads the program, so MTIs of either hit the cached entry.
	nop := func(*kernel.Task, []uint64) uint64 { return 0 }
	impls := modules.Instance{"a": nop, "b": nop, "c": nop}
	hint := &hints.Hint{Test: hints.StoreBarrierTest, Sched: 9, SchedOcc: 1, Reorder: spec.Sites}
	for _, first := range []string{"a", "b"} {
		pr := &syzlang.Program{Calls: []syzlang.Call{
			{Def: &syzlang.SyscallDef{Name: first}},
			{Def: &syzlang.SyscallDef{Name: "c"}},
		}}
		e.run(Config{Instrumented: true}, OOO{}, Request{Prog: pr, I: 0, J: 1, Hint: hint}, injected(impls))
	}
	if hits, misses := e.PlanCacheCounters(); hits != 2 || misses != 4 {
		t.Errorf("after two programs: counters = (%d hits, %d misses), want (2, 4)", hits, misses)
	}
	// The load-barrier variant must compile into read directives.
	lp := e.plans.plan(variants[0].spec, memmodel.LKMM)
	if !lp.HasReads() || len(lp.DelaySites()) != 0 {
		t.Errorf("load-barrier plan shape wrong: reads=%v delays=%v", lp.ReadSites(), lp.DelaySites())
	}
}

// TestPlanInstalledOnPairRuns: an OOO pair run with a reordering hint
// resolves its directives through the plan cache and behaves identically
// across repeats — same reorder count, one compile total.
func TestPlanInstalledOnPairRuns(t *testing.T) {
	e := New()
	var base trace.Addr
	impls := map[string]modules.Impl{
		"w": func(tk *kernel.Task, _ []uint64) uint64 {
			if base == 0 {
				base = tk.K.Mem.AllocZeroed(2)
			}
			tk.Store(101, base, 1)
			tk.Store(102, base+8, 1)
			return 0
		},
		"r": func(tk *kernel.Task, _ []uint64) uint64 {
			tk.Load(201, base+8)
			tk.Load(202, base)
			return 0
		},
	}
	pr := &syzlang.Program{Calls: []syzlang.Call{
		{Def: &syzlang.SyscallDef{Name: "w"}},
		{Def: &syzlang.SyscallDef{Name: "r"}},
	}}
	req := Request{Prog: pr, I: 0, J: 1, Hint: &hints.Hint{
		Test:     hints.StoreBarrierTest,
		Sched:    102,
		SchedOcc: 1,
		Reorder:  []trace.InstrID{101},
	}}
	var reordered []int
	for i := 0; i < 3; i++ {
		base = 0
		res := e.run(Config{Instrumented: true}, OOO{}, req, injected(impls))
		if res.Crash != nil || res.Deadlock != nil {
			t.Fatalf("run %d aborted: %+v", i, res)
		}
		if !res.Fired {
			t.Fatalf("run %d: breakpoint never fired", i)
		}
		reordered = append(reordered, res.Reordered)
	}
	if reordered[0] < 1 {
		t.Fatalf("no reordering observed: %v", reordered)
	}
	if reordered[1] != reordered[0] || reordered[2] != reordered[0] {
		t.Fatalf("cached plan diverges across repeats: %v", reordered)
	}
	if hits, misses := e.PlanCacheCounters(); misses != 1 || hits != 2 {
		t.Fatalf("counters = (%d hits, %d misses), want (2, 1)", hits, misses)
	}
	// The triage re-run (NoReorder) must bypass the plan entirely.
	base = 0
	req.NoReorder = true
	res := e.run(Config{Instrumented: true}, OOO{}, req, injected(impls))
	if res.Reordered != 0 {
		t.Fatalf("NoReorder run still reordered %d times", res.Reordered)
	}
}
