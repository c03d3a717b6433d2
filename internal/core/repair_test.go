package core

import (
	"reflect"
	"strings"
	"testing"

	"ozz/internal/modules"
)

// fig1Title is the Fig. 1 watch_queue crash both repair bugs share.
const fig1Title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"

func repairConfig(bug string) Config {
	for _, b := range modules.AllBugs() {
		if b.Switch == bug {
			return Config{
				Modules:  []string{b.Module},
				Bugs:     modules.Bugs(bug),
				Seed:     42,
				UseSeeds: true,
				Repair:   true,
			}
		}
	}
	panic("unknown bug " + bug)
}

// TestRepairFig1 is the acceptance path: reproducing the Fig. 1
// store-store bug with repair enabled must suggest the exact smp_wmb
// insertion between the two profiled stores, validated under lkmm and
// armv8 and reported unnecessary under tso.
func TestRepairFig1(t *testing.T) {
	p := NewPool(repairConfig("watchqueue:pipe_wmb"), 1)
	r := p.RunUntil(fig1Title, 200)
	if r == nil {
		t.Fatal("Fig. 1 crash did not reproduce")
	}
	if len(r.SuggestedFix) == 0 {
		t.Fatalf("report carries no SuggestedFix:\n%s", r)
	}
	top := r.SuggestedFix[0]
	want := "insert smp_wmb between post_one_notification:buf->ops=&ops and post_one_notification:head+=1"
	if !strings.Contains(top, want) {
		t.Fatalf("top suggestion = %q, want it to contain %q", top, want)
	}
	if !strings.Contains(top, "fixes: armv8, lkmm") || !strings.Contains(top, "unnecessary: tso") {
		t.Fatalf("top suggestion lacks the per-model verdicts: %q", top)
	}
	rr := p.RepairResult(fig1Title)
	if rr == nil {
		t.Fatal("RepairResult returned nil for the repaired title")
	}
	if rr.Kind != "S-S" || rr.Stats.Validated < 1 || len(rr.BuggyOutcomes) == 0 {
		t.Fatalf("unexpected repair result shape:\n%s", rr.Render())
	}
	if got := rr.Lines(); !reflect.DeepEqual(got, r.SuggestedFix) {
		t.Fatalf("SuggestedFix %v != Result.Lines() %v", r.SuggestedFix, got)
	}
	// The rendered report nests the suggestion inside the diagnosis block.
	if !strings.Contains(r.String(), "suggested fix:\n      - insert smp_wmb") {
		t.Fatalf("report rendering lacks the suggested-fix block:\n%s", r)
	}
}

// TestRepairFig1LoadBarrier covers the L-L side of Fig. 1: the missing
// reader fence must be repaired by an smp_rmb insertion (or nothing
// weaker), on the reader's side.
func TestRepairFig1LoadBarrier(t *testing.T) {
	p := NewPool(repairConfig("watchqueue:pipe_rmb"), 1)
	r := p.RunUntil(fig1Title, 200)
	if r == nil {
		t.Fatal("load-barrier crash did not reproduce")
	}
	if r.Type != "L-L" {
		t.Fatalf("report type = %q, want L-L", r.Type)
	}
	if len(r.SuggestedFix) == 0 {
		t.Fatalf("report carries no SuggestedFix:\n%s", r)
	}
	top := r.SuggestedFix[0]
	if !strings.Contains(top, "insert smp_rmb between pipe_read:") {
		t.Fatalf("top suggestion = %q, want a reader-side smp_rmb insertion", top)
	}
	if !strings.Contains(top, "unnecessary: tso") {
		t.Fatalf("top suggestion lacks the tso verdict: %q", top)
	}
}

// TestRepairOffByDefault pins the flag gate: without Config.Repair the
// finding carries no suggestions and RepairResult is nil.
func TestRepairOffByDefault(t *testing.T) {
	cfg := repairConfig("watchqueue:pipe_wmb")
	cfg.Repair = false
	p := NewPool(cfg, 1)
	r := p.RunUntil(fig1Title, 200)
	if r == nil {
		t.Fatal("crash did not reproduce")
	}
	if len(r.SuggestedFix) != 0 || p.RepairResult(fig1Title) != nil {
		t.Fatalf("repair ran despite Repair=false: %v", r.SuggestedFix)
	}
}

// TestRepairPoolMatchesSerial checks worker-count determinism of the
// repair results: a width-1 RunUntil and a width-4 Run over the same
// campaign must publish identical SuggestedFix lines and structured
// results.
func TestRepairPoolMatchesSerial(t *testing.T) {
	serial := NewPool(repairConfig("watchqueue:pipe_wmb"), 1)
	want := serial.RunUntil(fig1Title, 96)
	if want == nil {
		t.Fatal("width-1 RunUntil did not reproduce the crash")
	}
	wantRR := serial.RepairResult(fig1Title)
	p := NewPool(repairConfig("watchqueue:pipe_wmb"), 4)
	p.Run(96)
	got := p.Reports.Get(fig1Title)
	if got == nil {
		t.Fatal("width-4 Run did not reproduce the crash")
	}
	if !reflect.DeepEqual(got.SuggestedFix, want.SuggestedFix) {
		t.Fatalf("width-4 SuggestedFix = %v, width-1 = %v", got.SuggestedFix, want.SuggestedFix)
	}
	if gotRR := p.RepairResult(fig1Title); !reflect.DeepEqual(gotRR, wantRR) {
		t.Fatalf("width-4 repair result diverged from width-1:\n%s\nvs\n%s",
			gotRR.Render(), wantRR.Render())
	}
}
