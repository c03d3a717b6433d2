package engine

import (
	"testing"

	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/trace"
)

// recycledAllocs returns the allocations of one run of req on e, after
// warm-up runs have filled the recycler and the caller-owned buffers.
func recycledAllocs(e *Engine, cfg Config, req Request) float64 {
	for i := 0; i < 3; i++ {
		e.Run(cfg, OOO{}, req)
	}
	return testing.AllocsPerRun(100, func() { e.Run(cfg, OOO{}, req) })
}

// TestRecycledRunAllocs pins the allocations of a recycled engine run on a
// watchqueue seed, shaped like a campaign step's: the STI profile, into a
// reused buffer, and one MTI of its racing pair, into a reused result. A
// recycled run reuses the kernel's coverage set and task structs, the
// scheduler sessions, the argument and return slices, the pair plan and
// the task bodies, and the caller's profile buffer and MTI result. What
// is left is the module's state struct, and for the STI its fresh result
// with the coverage copy and the CallEvents and Returns tables. The
// counts were 5 (STI) and 1 (MTI) when the bounds were set; the bounds
// leave room for two more. Per-module rows then pin that constructing a
// module allocates nothing per syscall.
func TestRecycledRunAllocs(t *testing.T) {
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
	mti := Request{Prog: p, I: 1, J: 2, Hint: hs[0], Out: new(Result)}
	for _, c := range []struct {
		name string
		req  Request
		max  float64
	}{
		{"sti", sti, 7},
		{"mti", mti, 3},
	} {
		allocs := recycledAllocs(e, cfg, c.req)
		t.Logf("%s: %v allocs per run", c.name, allocs)
		if allocs > c.max {
			t.Errorf("recycled %s run: %v allocs, want at most %v", c.name, allocs, c.max)
		}
	}

	// Building a module costs its state struct, whatever its syscall
	// count: a recycled STI of each module's first seed allocates the
	// same for bpf (3 syscalls), tls (7) and xsk (8). vfs (12) allocates
	// two more, for state outside its syscall table: the filesystem it
	// mounts and the fd table its seed's vfs_creat grows. The count was
	// 5 when the bound was set.
	bpf := -1.0
	for _, row := range []struct {
		name  string
		extra float64
	}{{"bpf", 0}, {"tls", 0}, {"xsk", 0}, {"vfs", 2}} {
		m := modules.ByName(row.name)
		p, err := modules.Target(row.name).Parse(m.Seeds[0])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Modules: []string{row.name}, Instrumented: true}
		allocs := recycledAllocs(e, cfg, Request{Prog: p, Prof: &prof})
		t.Logf("%s seed (%d syscalls): %v allocs per run", row.name, len(m.Defs), allocs)
		if allocs > 7+row.extra {
			t.Errorf("recycled %s STI: %v allocs, want at most %v", row.name, allocs, 7+row.extra)
		}
		if bpf < 0 {
			bpf = allocs
		} else if allocs != bpf+row.extra {
			t.Errorf("recycled %s STI: %v allocs, want bpf's %v plus %v", row.name, allocs, bpf, row.extra)
		}
	}
}
