package core

import (
	"strings"
	"testing"

	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// mustParse parses a seed program against the watchqueue target.
func mustParse(t *testing.T, target *syzlang.Target, src string) *syzlang.Program {
	t.Helper()
	p, err := target.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

const wqProg = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"

// TestSTIProfilesAccesses checks the profiling phase (§4.2): the
// single-threaded run records access and barrier events per call.
func TestSTIProfilesAccesses(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, nil)
	target := modules.Target("watchqueue")
	p := mustParse(t, target, wqProg)
	res := env.RunSTI(p)
	if res.Crash != nil {
		t.Fatalf("unexpected crash: %v", res.Crash)
	}
	if len(res.CallEvents[1]) == 0 || len(res.CallEvents[2]) == 0 {
		t.Fatalf("expected profiled events for post and read, got %d/%d",
			len(res.CallEvents[1]), len(res.CallEvents[2]))
	}
	// The post call must record its smp_wmb (bug switch off).
	foundWmb := false
	for _, e := range res.CallEvents[1] {
		if e.Barrier && memmodel.LKMM.OrdersStores(e.Bar.Kind) {
			foundWmb = true
		}
	}
	if !foundWmb {
		t.Errorf("post_one_notification profile lacks the smp_wmb event")
	}
}

// findAndRun computes hints for the (post, read) pair and runs MTIs until a
// crash, returning the crash title ("" if none).
func findAndRun(t *testing.T, env *Env, p *syzlang.Program) string {
	t.Helper()
	sti := env.RunSTI(p)
	if sti.Crash != nil {
		t.Fatalf("sequential crash: %v", sti.Crash)
	}
	hs := hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
	if len(hs) == 0 {
		t.Fatalf("no scheduling hints computed")
	}
	for _, h := range hs {
		res := env.RunMTI(MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
		if res.Crash != nil {
			return res.Crash.Title
		}
	}
	return ""
}

// TestFig1StoreBarrierBug reproduces the paper's Fig. 1 bug with the
// missing smp_wmb (hypothetical store barrier test, Fig. 5a).
func TestFig1StoreBarrierBug(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb"))
	target := modules.Target("watchqueue")
	p := mustParse(t, target, wqProg)
	title := findAndRun(t, env, p)
	if !strings.Contains(title, "NULL pointer dereference in pipe_read") {
		t.Fatalf("expected pipe_read NULL deref, got %q", title)
	}
}

// TestFig1LoadBarrierBug reproduces the reader half: missing smp_rmb in
// pipe_read (hypothetical load barrier test, Fig. 5b).
func TestFig1LoadBarrierBug(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_rmb"))
	target := modules.Target("watchqueue")
	p := mustParse(t, target, wqProg)
	title := findAndRun(t, env, p)
	if !strings.Contains(title, "NULL pointer dereference in pipe_read") {
		t.Fatalf("expected pipe_read NULL deref, got %q", title)
	}
}

// TestNoFalsePositiveWithBarriers checks that with both barriers present no
// hint triggers a crash: OEMU must refuse to reorder across real barriers.
func TestNoFalsePositiveWithBarriers(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, nil)
	target := modules.Target("watchqueue")
	p := mustParse(t, target, wqProg)
	sti := env.RunSTI(p)
	hs := hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
	for _, h := range hs {
		res := env.RunMTI(MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
		if res.Crash != nil {
			t.Fatalf("false positive with barriers present: %v (hint %v)", res.Crash, h)
		}
	}
}

// TestFilterWmbBug reproduces Table 3 bug #2 (NULL deref in
// _find_first_bit): the filter publication misses its smp_wmb.
func TestFilterWmbBug(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:post_wmb_bit"))
	target := modules.Target("watchqueue")
	p := mustParse(t, target, "r0 = wq_create()\nwq_set_filter(r0, 0x20)\nwq_post_notification(r0, 0x2)\n")
	title := findAndRun(t, env, p)
	if !strings.Contains(title, "_find_first_bit") {
		t.Fatalf("expected _find_first_bit NULL deref, got %q", title)
	}
}
