package engine

import (
	"testing"

	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/trace"
)

// TestRecycledRunAllocs pins the allocations of a recycled engine run on a
// watchqueue seed: the STI profile, into a reused buffer, and one MTI of
// its racing pair. A recycled run reuses the kernel's coverage set and
// task structs, the scheduler sessions, the argument and return slices,
// and the caller's profile buffer, so what is left is the result with its
// coverage copy and its CallEvents and Returns tables, the module
// instances and the run's closures. The counts were 17 (STI) and 21 (MTI)
// when the bounds were set; the bounds leave room for two more.
func TestRecycledRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p, err := modules.Target("watchqueue").Parse("r0 = wq_create()\nwq_set_filter(r0, 0x20)\nwq_post_notification(r0, 0x2)\n")
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	cfg := Config{Modules: []string{"watchqueue"}, Instrumented: true}
	var prof trace.Buffer
	sti := Request{Prog: p, Prof: &prof}
	res := e.Run(cfg, OOO{}, sti)
	hs := hints.CalculateModel(res.CallEvents[1], res.CallEvents[2], memmodel.LKMM)
	if len(hs) == 0 {
		t.Fatal("no hints for the seed's set_filter/post_notification pair")
	}
	mti := Request{Prog: p, I: 1, J: 2, Hint: hs[0]}
	for _, c := range []struct {
		name string
		req  Request
		max  float64
	}{
		{"sti", sti, 19},
		{"mti", mti, 23},
	} {
		for i := 0; i < 3; i++ {
			e.Run(cfg, OOO{}, c.req)
		}
		allocs := testing.AllocsPerRun(100, func() { e.Run(cfg, OOO{}, c.req) })
		t.Logf("%s: %v allocs per run", c.name, allocs)
		if allocs > c.max {
			t.Errorf("recycled %s run: %v allocs, want at most %v", c.name, allocs, c.max)
		}
	}
}
