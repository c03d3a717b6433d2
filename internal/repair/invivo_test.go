package repair

import (
	"testing"

	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/trace"
)

// TestAbstractFits feeds abstract synthetic store-test profiles whose
// abstractions sit at the reference model's limits: it returns nil —
// nothing to search — exactly when the abstraction, with maxFences
// barriers inserted into thread 0, does not fit model.Fits, so no
// campaign finding reaches the model's panic.
func TestAbstractFits(t *testing.T) {
	st := func(instr trace.InstrID, addr trace.Addr) trace.Event {
		return trace.Event{Acc: trace.AccessEvent{Instr: instr, Addr: addr, Kind: trace.Store}}
	}
	ld := func(instr trace.InstrID, addr trace.Addr) trace.Event {
		return trace.Event{Acc: trace.AccessEvent{Instr: instr, Addr: addr, Kind: trace.Load}}
	}
	const sched = 1000
	finding := func(reorder ...trace.InstrID) *engine.Finding {
		return &engine.Finding{I: 0, J: 1, Title: "synthetic", Hint: &hints.Hint{
			Test: hints.StoreBarrierTest, Sched: sched, SchedOcc: 1, SchedKind: trace.Store, Reorder: reorder,
		}}
	}
	// barriers is a reorderer window of one reorder-site store, n explicit
	// smp_mb and the scheduling-point store: n+2 thread-0 ops.
	barriers := func(n int) [][]trace.Event {
		rev := []trace.Event{st(1, 0x10)}
		for i := 0; i < n; i++ {
			rev = append(rev, trace.Event{Barrier: true, Bar: trace.BarrierEvent{Instr: trace.InstrID(2000 + i), Kind: trace.BarrierFull}})
		}
		rev = append(rev, st(sched, 0x20))
		return [][]trace.Event{rev, {ld(3000, 0x10), ld(3001, 0x20)}}
	}
	// stores is a reorderer window of n reorder-site stores and the
	// scheduling-point store, observed by 8 stores: n+9 stores in all.
	stores := func(n int) (*engine.Finding, [][]trace.Event) {
		var rev, oev []trace.Event
		var reorder []trace.InstrID
		for i := 0; i < n; i++ {
			rev = append(rev, st(trace.InstrID(1+i), trace.Addr(0x10*(1+i))))
			reorder = append(reorder, trace.InstrID(1+i))
		}
		rev = append(rev, st(sched, 0x10))
		for i := 0; i < 8; i++ {
			oev = append(oev, st(trace.InstrID(3000+i), trace.Addr(0x10*(1+i))))
		}
		return finding(reorder...), [][]trace.Event{rev, oev}
	}
	f255, e255 := stores(246)
	f256, e256 := stores(247)
	cases := []struct {
		name      string
		f         *engine.Finding
		events    [][]trace.Event
		maxFences int
		fits      bool
	}{
		{"253 ops + 2 fences", finding(1), barriers(251), 2, true},
		{"254 ops + 2 fences", finding(1), barriers(252), 2, false},
		{"254 ops + 1 fence", finding(1), barriers(252), 1, true},
		{"300 ops", finding(1), barriers(298), 0, false},
		{"255 stores", f255, e255, 2, true},
		{"256 stores", f256, e256, 2, false},
	}
	for _, c := range cases {
		a := abstract(c.f, c.events, c.maxFences)
		if (a != nil) != c.fits {
			t.Errorf("%s: abstract returns %v, want an abstraction: %v", c.name, a != nil, c.fits)
			continue
		}
		if a == nil {
			continue
		}
		stores := 0
		for _, ops := range a.test.Threads {
			for _, op := range ops {
				if op.Kind == lkmm.OpStore {
					stores++
				}
			}
		}
		t.Logf("%s: thread 0 has %d ops, %d stores in all", c.name, len(a.test.Threads[0]), stores)
		if !model.Fits(a.test) {
			t.Errorf("%s: abstract returns an abstraction model.Fits rejects", c.name)
		}
	}
}
