package lkmm_test

import (
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// suiteTest returns the named suite shape.
func suiteTest(t testing.TB, name string) *lkmm.Test {
	for _, e := range lkmm.Suite() {
		if e.Test.Name == name {
			return e.Test
		}
	}
	t.Fatalf("no suite shape %q", name)
	return nil
}

// unreachable is a register vector of values no litmus store writes.
func unreachable(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = 99
	}
	return v
}

// TestLitmusReachesPrunes pins the search's two shortcuts on relaxed MP,
// whose registers each have one writer: a reachable target ends the
// search before the enumeration's last run, and an unreachable one
// completes no run at all, since the first load already contradicts it.
// On a shape whose one register has two writers nothing is final before
// the run ends, so an unreachable target completes every run RunModel
// does.
func TestLitmusReachesPrunes(t *testing.T) {
	mp := suiteTest(t, "MP (relaxed)")
	all := lkmm.RunModel(mp, memmodel.LKMM).Runs
	var r lkmm.Reacher
	if !r.Reaches(mp, memmodel.LKMM, [][]uint64{{1, 0}}) {
		t.Fatal("relaxed MP does not reach its stale observation")
	}
	if r.Runs() == 0 || r.Runs() >= all {
		t.Errorf("reaching r0=1;r1=0 completed %d runs, want between 1 and %d", r.Runs(), all-1)
	}
	if r.Reaches(mp, memmodel.LKMM, [][]uint64{unreachable(2)}) {
		t.Fatal("relaxed MP reaches an unwritten value")
	}
	if r.Runs() != 0 {
		t.Errorf("an unreachable target completed %d runs, want 0", r.Runs())
	}
	shared := &lkmm.Test{Name: "MP+same-reg", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.W(1, 1)},
		{lkmm.R(1, 0), lkmm.R(0, 0)},
	}, NumLocs: 2, NumRegs: 1}
	if r.Reaches(shared, memmodel.LKMM, [][]uint64{unreachable(1)}) {
		t.Fatal("MP+same-reg reaches an unwritten value")
	}
	if want := lkmm.RunModel(shared, memmodel.LKMM).Runs; r.Runs() != want {
		t.Errorf("a two-writer register was pruned: %d runs completed, RunModel runs %d", r.Runs(), want)
	}
}

// TestLitmusReachesAllocs checks that a warm Reacher searches without
// allocating, whether the search stops early, prunes everything, or
// completes every run of a shape with no final register.
func TestLitmusReachesAllocs(t *testing.T) {
	mp := suiteTest(t, "MP (relaxed)")
	sb := suiteTest(t, "SB (relaxed)")
	shared := &lkmm.Test{Name: "SB+shared-reg", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.R(1, 0)},
		{lkmm.W(1, 2), lkmm.R(0, 0)},
	}, NumLocs: 2, NumRegs: 1}
	cases := []struct {
		test    *lkmm.Test
		targets [][]uint64
	}{
		{mp, [][]uint64{{1, 0}}},
		{mp, [][]uint64{unreachable(2)}},
		{sb, [][]uint64{{0, 0}, {1, 1}}},
		{shared, [][]uint64{unreachable(1)}},
	}
	var r lkmm.Reacher
	for _, c := range cases {
		r.Reaches(c.test, memmodel.ARMv8, c.targets)
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(20, func() { r.Reaches(c.test, memmodel.ARMv8, c.targets) })
		if allocs != 0 {
			t.Errorf("%s %v: a warm Reaches allocates %.0f times, want 0", c.test.Name, c.targets, allocs)
		}
	}
}

// singleFenceVariants returns test with one fence added, in every way the
// repair search places one: a store, load or full barrier between two ops
// of a thread, or a store strengthened to release or a load to acquire.
func singleFenceVariants(test *lkmm.Test) []*lkmm.Test {
	var out []*lkmm.Test
	with := func(ti int, ops []lkmm.Op) {
		v := *test
		v.Threads = append([][]lkmm.Op(nil), test.Threads...)
		v.Threads[ti] = ops
		out = append(out, &v)
	}
	for ti, ops := range test.Threads {
		for g := 1; g < len(ops); g++ {
			for _, bk := range []trace.BarrierKind{trace.BarrierStore, trace.BarrierLoad, trace.BarrierFull} {
				nops := append(append(append([]lkmm.Op(nil), ops[:g]...), lkmm.Op{Kind: lkmm.OpBarrier, Bar: bk}), ops[g:]...)
				with(ti, nops)
			}
		}
		for i, op := range ops {
			switch op.Kind {
			case lkmm.OpStore:
				op.Atomic = trace.AtomicRelease
			case lkmm.OpLoad:
				op.Atomic = trace.AtomicAcquire
			default:
				continue
			}
			nops := append([]lkmm.Op(nil), ops...)
			nops[i] = op
			with(ti, nops)
		}
	}
	return out
}

// reachSink keeps benchmarked verdicts live.
var reachSink bool

// BenchmarkLitmusReaches runs the closure checks of every suite shape's
// single-fence repairs once per iteration, under lkmm and armv8, with no
// memo in front: each check searches for the outcomes the suite names for
// its shape (the weak outcomes a repair must forbid, plus CoWR's own
// store). One Reacher serves them all, as one validation worker's does.
func BenchmarkLitmusReaches(b *testing.B) {
	type check struct {
		test    *lkmm.Test
		mm      *memmodel.Table
		targets [][]uint64
	}
	var checks []check
	for _, mm := range []*memmodel.Table{memmodel.LKMM, memmodel.ARMv8} {
		for _, e := range lkmm.Suite() {
			allowed, forbidden := e.VerdictsFor(mm.Name())
			var targets [][]uint64
			for _, o := range append(append([]lkmm.Outcome(nil), allowed...), forbidden...) {
				targets = append(targets, o.Regs())
			}
			for _, v := range singleFenceVariants(e.Test) {
				checks = append(checks, check{v, mm, targets})
			}
		}
	}
	var r lkmm.Reacher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range checks {
			reachSink = r.Reaches(c.test, c.mm, c.targets)
		}
	}
}
