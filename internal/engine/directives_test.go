package engine

import (
	"fmt"
	"testing"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/memmodel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// TestHintDirectivesOnRecycledEngine: an OOO pair run installs its hint's
// sites through Table 2's directives on the reorderer — DelayStoreAt for a
// store-barrier test, ReadOldValueAt for a load-barrier test — and nothing
// else. The cases run in order, three rounds, on one engine, so every run
// after the first gets recycled kernel threads: the case with no reorder
// sites follows a reordering run and sees any directive that leaked
// across the recycle.
// Each case directs one site, so its effect is one reordering and the
// value "r" reads from x.
func TestHintDirectivesOnRecycledEngine(t *testing.T) {
	// Call "w" stores x (site 101) then y (102); call "r" loads y (201)
	// then x (202) into gotY and gotX. Whichever runs first allocates the
	// two words.
	var base trace.Addr
	var gotX, gotY uint64
	alloc := func(tk *kernel.Task) {
		if base == 0 {
			base = tk.K.Mem.AllocZeroed(2)
		}
	}
	m := newSynth(map[string]impl{
		"w": func(tk *kernel.Task, _ []uint64) uint64 {
			alloc(tk)
			tk.Store(101, base, 1)
			tk.Store(102, base+8, 1)
			return 0
		},
		"r": func(tk *kernel.Task, _ []uint64) uint64 {
			alloc(tk)
			gotY = tk.Load(201, base+8)
			gotX = tk.Load(202, base)
			return 0
		},
	})
	pr := &syzlang.Program{Calls: []syzlang.Call{{Def: m.def("w")}, {Def: m.def("r")}}}
	// The store-barrier hint reorders "w" and switches after its store to
	// y, so "r" sees y's new value and x's old one. The load-barrier hint
	// reorders "r" and switches before its load of y, so "w" commits both
	// stores first and the versioned load of x reads the old value.
	storeHint := &hints.Hint{Test: hints.StoreBarrierTest, Sched: 102, SchedOcc: 1,
		Reorder: []trace.InstrID{101}}
	loadHint := &hints.Hint{Test: hints.LoadBarrierTest, Reorderer: 1, Sched: 201, SchedOcc: 1,
		Reorder: []trace.InstrID{202}}
	cases := []struct {
		name      string
		hint      *hints.Hint
		noReorder bool
		model     *memmodel.Table
		reordered int    // delayed stores plus versioned loads
		x         uint64 // the value "r" reads from x; it always reads y = 1
	}{
		{"store barrier delays its sites", storeHint, false, memmodel.LKMM, 1, 0},
		{"no reorder sites on a recycled kernel", storeHint, true, memmodel.LKMM, 0, 1},
		{"load barrier versions its sites", loadHint, false, memmodel.LKMM, 1, 0},
		{"load barrier under TSO", loadHint, false, memmodel.TSO, 0, 1},
	}
	e := NewObs(nil)
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/round%d", c.name, round), func(t *testing.T) {
				base = 0
				f := Finding{Prog: pr, I: 0, J: 1, Hint: c.hint}
				req := f.Request(c.hint.Reorder, nil)
				if c.noReorder {
					req = f.Request(nil, nil)
				}
				res := e.run(Config{Instrumented: true, Model: c.model}, OOO{}, req, m.build)
				if res.Crash != nil || res.Deadlock != nil {
					t.Fatalf("run aborted: %+v", res)
				}
				if !res.Fired {
					t.Fatal("breakpoint never fired")
				}
				if res.Reordered != c.reordered {
					t.Fatalf("Reordered = %d, want %d", res.Reordered, c.reordered)
				}
				if gotX != c.x || gotY != 1 {
					t.Fatalf("r read x=%d y=%d, want x=%d y=1", gotX, gotY, c.x)
				}
			})
		}
	}
}
