package lkmm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ozz/internal/memmodel"
)

// The classic litmus shapes, named as in the memory-model literature and
// the LKMM documentation. Locations: 0=x, 1=y. Registers: r0, r1.

// mp builds a message-passing test: P0 stores data then flag (with barrier
// b0 between); P1 loads flag then data (with barrier b1 between).
func mp(b0, b1 []Op) *Test {
	t0 := append([]Op{W(0, 1)}, b0...)
	t0 = append(t0, W(1, 1))
	t1 := append([]Op{R(1, 0)}, b1...)
	t1 = append(t1, R(0, 1))
	return &Test{Name: "MP", Threads: [][]Op{t0, t1}, NumLocs: 2, NumRegs: 2}
}

// TestMPRelaxedAllowsStale: with no barriers, the forbidden-under-SC
// outcome r0=1 (flag seen) & r1=0 (data stale) IS observable — OEMU can
// emulate the weak behaviour (the capability direction).
func TestMPRelaxedAllowsStale(t *testing.T) {
	res := RunModel(mp(nil, nil), memmodel.LKMM)
	if !res.Has("r0=1;r1=0") {
		t.Fatalf("relaxed MP must allow the stale observation; got %v", res.Sorted())
	}
	// Sanity: the SC outcomes are of course also observable.
	for _, o := range []Outcome{"r0=0;r1=0", "r0=1;r1=1"} {
		if !res.Has(o) {
			t.Errorf("missing SC outcome %s", o)
		}
	}
}

// TestMPFullyBarriered: smp_wmb + smp_rmb forbid the stale observation
// (LKMM Cases 2 and 3).
func TestMPFullyBarriered(t *testing.T) {
	res := RunModel(mp([]Op{Wmb()}, []Op{Rmb()}), memmodel.LKMM)
	if res.Has("r0=1;r1=0") {
		t.Fatalf("barriered MP must forbid the stale observation; got %v", res.Sorted())
	}
}

// TestMPWmbOnlyStillWeak: the writer's wmb alone does not save a reader
// without rmb — the reader's loads may still be reordered. This is exactly
// why Fig. 1 needs BOTH barriers.
func TestMPWmbOnlyStillWeak(t *testing.T) {
	res := RunModel(mp([]Op{Wmb()}, nil), memmodel.LKMM)
	if !res.Has("r0=1;r1=0") {
		t.Fatalf("MP with wmb only must still allow the stale read; got %v", res.Sorted())
	}
}

// TestMPRmbOnlyStillWeak: symmetric — the reader's rmb alone cannot order
// the writer's stores.
func TestMPRmbOnlyStillWeak(t *testing.T) {
	res := RunModel(mp(nil, []Op{Rmb()}), memmodel.LKMM)
	if !res.Has("r0=1;r1=0") {
		t.Fatalf("MP with rmb only must still allow the stale observation; got %v", res.Sorted())
	}
}

// TestMPFullBarriers: smp_mb on both sides forbids the stale observation
// (LKMM Case 1).
func TestMPFullBarriers(t *testing.T) {
	res := RunModel(mp([]Op{Mb()}, []Op{Mb()}), memmodel.LKMM)
	if res.Has("r0=1;r1=0") {
		t.Fatalf("mb-barriered MP must forbid the stale observation; got %v", res.Sorted())
	}
}

// TestMPReleaseAcquire: smp_store_release publishing + smp_load_acquire
// consuming forbid the stale observation (LKMM Cases 4 and 5).
func TestMPReleaseAcquire(t *testing.T) {
	test := &Test{
		Name: "MP+rel+acq",
		Threads: [][]Op{
			{W(0, 1), WRel(1, 1)},
			{RAcq(1, 0), R(0, 1)},
		},
		NumLocs: 2, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=1;r1=0") {
		t.Fatalf("release/acquire MP must forbid the stale observation; got %v", res.Sorted())
	}
}

// TestMPReadOnceConsumer: READ_ONCE on the flag acts as a load barrier for
// the subsequent load (OEMU's conservative Case 6 rule), so with an ordered
// writer the stale observation is forbidden.
func TestMPReadOnceConsumer(t *testing.T) {
	test := &Test{
		Name: "MP+wmb+ROnce",
		Threads: [][]Op{
			{W(0, 1), Wmb(), W(1, 1)},
			{ROnce(1, 0), R(0, 1)},
		},
		NumLocs: 2, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=1;r1=0") {
		t.Fatalf("READ_ONCE consumer must forbid the stale read; got %v", res.Sorted())
	}
}

// TestSBRelaxedAllowsBothZero: store buffering — with only WRITE_ONCE
// (relaxed) accesses, both threads may read 0 (the Fig. 10 Rust example);
// this requires store-load reordering, which delayed stores emulate.
func TestSBRelaxedAllowsBothZero(t *testing.T) {
	test := &Test{
		Name: "SB",
		Threads: [][]Op{
			{WOnce(0, 1), ROnce(1, 0)},
			{WOnce(1, 1), ROnce(0, 1)},
		},
		NumLocs: 2, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if !res.Has("r0=0;r1=0") {
		t.Fatalf("relaxed SB must allow r0=r1=0; got %v", res.Sorted())
	}
}

// TestSBFullBarriersForbidBothZero: smp_mb() between the store and the load
// on both sides forbids r0=r1=0 (the only barrier strong enough for
// store-load ordering).
func TestSBFullBarriersForbidBothZero(t *testing.T) {
	test := &Test{
		Name: "SB+mb",
		Threads: [][]Op{
			{W(0, 1), Mb(), R(1, 0)},
			{W(1, 1), Mb(), R(0, 1)},
		},
		NumLocs: 2, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=0;r1=0") {
		t.Fatalf("SB+mb must forbid r0=r1=0; got %v", res.Sorted())
	}
}

// TestLBForbidden: load buffering (r0=1 & r1=1 requires each thread's load
// to be reordered AFTER its store) must be unreachable — OEMU does not
// emulate load-store reordering (§3 scope; LKMM Case 7 honours the
// dependency variants anyway).
func TestLBForbidden(t *testing.T) {
	test := &Test{
		Name: "LB",
		Threads: [][]Op{
			{R(1, 0), W(0, 1)},
			{R(0, 1), W(1, 1)},
		},
		NumLocs: 2, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=1;r1=1") {
		t.Fatalf("LB outcome requires load-store reordering, which OEMU must not emulate; got %v", res.Sorted())
	}
}

// TestCoRR: read-read coherence per location — after P1 sees the new value
// it can never see the old one again, for any directives.
func TestCoRR(t *testing.T) {
	test := &Test{
		Name: "CoRR",
		Threads: [][]Op{
			{W(0, 1)},
			{R(0, 0), R(0, 1)},
		},
		NumLocs: 1, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=1;r1=0") {
		t.Fatalf("CoRR violated: new-then-old observed; got %v", res.Sorted())
	}
}

// TestCoWW: write-write coherence — the final memory value always matches
// the last store in program order; equivalently a reader thread can never
// see the first value after the second... checked via a reader after both
// commits (flush at thread exit).
func TestCoWW(t *testing.T) {
	test := &Test{
		Name: "CoWW",
		Threads: [][]Op{
			{W(0, 1), W(0, 2)},
			{R(0, 0), R(0, 1)},
		},
		NumLocs: 1, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	// Forbidden: observing 2 then 1 (commit order inverted).
	if res.Has("r0=2;r1=1") {
		t.Fatalf("CoWW violated: got %v", res.Sorted())
	}
}

// TestCoWR: a thread reading its own earlier store must see it (or a newer
// value), never the pre-store value.
func TestCoWR(t *testing.T) {
	test := &Test{
		Name: "CoWR",
		Threads: [][]Op{
			{W(0, 5), R(0, 0)},
		},
		NumLocs: 1, NumRegs: 1,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=0") {
		t.Fatalf("CoWR violated: own store invisible; got %v", res.Sorted())
	}
	if !res.Has("r0=5") {
		t.Fatalf("own store never read; got %v", res.Sorted())
	}
}

// TestWmbBoundsDelayExactly: a delayed store never crosses a wmb, for any
// interleaving/directives: an ORDERED reader (rmb between its loads) that
// observes a post-barrier store must also see every pre-barrier store.
// (Without the reader's rmb the outcome is legitimately weak — that case is
// TestMPWmbOnlyStillWeak.)
func TestWmbBoundsDelayExactly(t *testing.T) {
	test := &Test{
		Name: "MP+wmb+rmb+extra",
		Threads: [][]Op{
			{W(0, 1), Wmb(), W(1, 1), W(2, 1)},
			{R(1, 0), Rmb(), R(0, 1)},
		},
		NumLocs: 3, NumRegs: 2,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Has("r0=1;r1=0") {
		t.Fatalf("store crossed smp_wmb; got %v", res.Sorted())
	}
}

// TestRunCountsAndDeterminism: the exhaustive engine is deterministic.
func TestRunCountsAndDeterminism(t *testing.T) {
	a := RunModel(mp(nil, nil), memmodel.LKMM)
	b := RunModel(mp(nil, nil), memmodel.LKMM)
	if a.Runs == 0 || a.Runs != b.Runs {
		t.Fatalf("runs %d vs %d", a.Runs, b.Runs)
	}
	as, bs := a.Sorted(), b.Sorted()
	if len(as) != len(bs) {
		t.Fatalf("outcome sets differ: %v vs %v", as, bs)
	}
}

// TestRShape: the R litmus shape — P0: W(x,1); W(y,1). P1: W(y,2); R(x).
// With smp_wmb in P0 and smp_mb in P1, the outcome "P1 read x=0 AND memory
// ends with y=1" (P0's y-store lost the race but its x-store invisible) is
// forbidden; relaxed it is allowed. We check the relaxed direction (the
// emulation-capability side) via registers: r0 = P1's x read.
func TestRShape(t *testing.T) {
	relaxed := &Test{
		Name: "R (relaxed)",
		Threads: [][]Op{
			{W(0, 1), W(1, 1)},
			{W(1, 2), R(0, 0)},
		},
		NumLocs: 2, NumRegs: 1,
	}
	res := RunModel(relaxed, memmodel.LKMM)
	if !res.Has("r0=0") || !res.Has("r0=1") {
		t.Fatalf("R shape should reach both reads; got %v", res.Sorted())
	}
}

// TestSShape: S — P0: W(x,2); wmb; W(y,1). P1: R(y)=1; W(x,1). The
// forbidden-with-barriers outcome is P1 seeing y=1 yet x ending at 2 with
// P1's x=1 overwritten "before" it... in OEMU terms: with the wmb, if P1
// read y=1 then P0's x=2 committed before, so a final x=1 means P1's store
// came later — always consistent. We assert the engine runs the shape and
// never invents values.
func TestSShape(t *testing.T) {
	test := &Test{
		Name: "S",
		Threads: [][]Op{
			{W(0, 2), Wmb(), W(1, 1)},
			{R(1, 0), W(0, 1)},
		},
		NumLocs: 2, NumRegs: 1,
	}
	res := RunModel(test, memmodel.LKMM)
	for _, o := range res.Sorted() {
		if o != "r0=0" && o != "r0=1" {
			t.Fatalf("invented outcome %s", o)
		}
	}
}

// Test2Plus2W: 2+2W — both threads write both locations in opposite
// orders, with wmb between. Observed final values must be one of the
// coherent outcomes; reading threads omitted (pure write shape executes
// without fault and flushes cleanly).
func Test2Plus2W(t *testing.T) {
	test := &Test{
		Name: "2+2W+wmb",
		Threads: [][]Op{
			{W(0, 1), Wmb(), W(1, 2)},
			{W(1, 1), Wmb(), W(0, 2)},
		},
		NumLocs: 2, NumRegs: 0,
	}
	res := RunModel(test, memmodel.LKMM)
	if res.Runs == 0 {
		t.Fatal("no runs")
	}
}

// TestMPThreeReaders: one writer, two independent readers — each reader's
// own barriers decide what it may observe; an unbarriered reader may see
// the stale pair while the barriered one never does, in the SAME execution
// space.
func TestMPThreeReaders(t *testing.T) {
	test := &Test{
		Name: "MP+2 readers",
		Threads: [][]Op{
			{W(0, 1), Wmb(), W(1, 1)},
			{R(1, 0), Rmb(), R(0, 1)}, // ordered reader: r0,r1
			{R(1, 2), R(0, 3)},        // unordered reader: r2,r3
		},
		NumLocs: 2, NumRegs: 4,
	}
	res := RunModel(test, memmodel.LKMM)
	orderedStale, unorderedStale := false, false
	for o := range res.Outcomes {
		s := string(o)
		if strings.Contains(s, "r0=1;r1=0") {
			orderedStale = true
		}
		if strings.Contains(s, "r2=1;r3=0") {
			unorderedStale = true
		}
	}
	if orderedStale {
		t.Error("barriered reader observed the stale pair")
	}
	if !unorderedStale {
		t.Error("unbarriered reader never observed the stale pair")
	}
}

// TestPropertyNoInventedValues: for random small programs, every register
// outcome is a value some store actually wrote (or the initial 0) — OEMU
// never fabricates data, no matter the directives.
func TestPropertyNoInventedValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		written := map[uint64]bool{0: true}
		mkThread := func(regBase int) []Op {
			var ops []Op
			n := rng.Intn(3) + 1
			for i := 0; i < n; i++ {
				loc := rng.Intn(2)
				switch rng.Intn(3) {
				case 0:
					v := uint64(rng.Intn(5) + 1)
					written[v] = true
					ops = append(ops, W(loc, v))
				case 1:
					ops = append(ops, R(loc, regBase))
				default:
					ops = append(ops, Wmb())
				}
			}
			return ops
		}
		test := &Test{
			Name:    "random",
			Threads: [][]Op{mkThread(0), mkThread(1)},
			NumLocs: 2, NumRegs: 2,
		}
		res := RunModel(test, memmodel.LKMM)
		for o := range res.Outcomes {
			for _, part := range strings.Split(string(o), ";") {
				var reg int
				var val uint64
				if _, err := fmt.Sscanf(part, "r%d=%d", &reg, &val); err != nil {
					return false
				}
				if !written[val] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOutcomeRegsRoundTrip: Regs inverts the rendering OutcomeSet stores,
// and rejects text that is not one.
func TestOutcomeRegsRoundTrip(t *testing.T) {
	for _, regs := range [][]uint64{nil, {0}, {1, 0}, {3, 12, 0, 1 << 63}} {
		set := NewOutcomeSet()
		set.Add(regs)
		for o := range set.Outcomes {
			if got := o.Regs(); fmt.Sprint(got) != fmt.Sprint(regs) {
				t.Errorf("Outcome(%q).Regs() = %v, want %v", o, got, regs)
			}
		}
	}
	for _, bad := range []Outcome{"r1=0", "r0=x", "r0=1;r0=2", "r0=1;"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Outcome(%q).Regs() did not panic", bad)
				}
			}()
			bad.Regs()
		}()
	}
}
