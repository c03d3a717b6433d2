package bench

import (
	"strings"
	"testing"
	"time"

	"ozz/internal/modules"
	"ozz/internal/obs"
)

// TestLMBenchRowsComplete: every Table 5 workload runs on both kernel
// configurations and produces positive timings.
func TestLMBenchRowsComplete(t *testing.T) {
	rows := RunLMBench(300)
	want := []string{"null", "stat", "open/close", "File create", "File delete",
		"ctxsw 2p/0k", "pipe", "unix", "fork", "mmap"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Name != want[i] {
			t.Errorf("row %d = %q, want %q", i, r.Name, want[i])
		}
		if r.BaseNs <= 0 || r.InstrNs <= 0 || r.Overhead <= 0 {
			t.Errorf("row %s has non-positive measurements: %+v", r.Name, r)
		}
	}
	out := FormatLMBench(rows)
	if !strings.Contains(out, "Overhead") || !strings.Contains(out, "mmap") {
		t.Errorf("FormatLMBench output malformed:\n%s", out)
	}
}

// TestInstrumentationCostsSomething: the aggregate instrumented time must
// exceed the plain time (the one ordering Table 5 must always show).
func TestInstrumentationCostsSomething(t *testing.T) {
	rows := RunLMBench(500)
	var base, instr float64
	for _, r := range rows {
		base += r.BaseNs
		instr += r.InstrNs
	}
	if instr <= base {
		t.Fatalf("instrumented aggregate (%.0f ns) not slower than plain (%.0f ns)", instr, base)
	}
}

// TestThroughputComparisonShape: the baseline outpaces OZZ and the slowdown
// is reported consistently.
func TestThroughputComparisonShape(t *testing.T) {
	res := MeasureThroughputWorkers(150*time.Millisecond, nil, nil, nil)
	if res.SyzkallerTestsPerSec <= 0 || res.OzzTestsPerSec <= 0 {
		t.Fatalf("non-positive rates: %+v", res)
	}
	if res.Slowdown < 1 {
		t.Fatalf("OZZ faster than the plain baseline (%.2fx)? %+v", res.Slowdown, res)
	}
	if !strings.Contains(res.Format(), "tests/s") {
		t.Errorf("Format output malformed: %q", res.Format())
	}
}

// TestThroughputRecyclingPerSide: on a shared registry that already
// counts an earlier campaign's kernels, each side's recycle rate covers
// the kernels of its own measurement window only.
func TestThroughputRecyclingPerSide(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg, nil)
	t.Cleanup(func() { Instrument(nil, nil) })
	reg.CounterVec("ozz_kernel_acquires_total", "", "source").With("built").Add(1_000_000)
	res := MeasureThroughputWorkers(100*time.Millisecond, nil, nil, nil)
	if res.SyzkallerRecycleRate < 0.5 || res.OzzRecycleRate < 0.5 {
		t.Fatalf("recycle rates syzkaller %.3f, OZZ %.3f: want each side's own kernels, mostly recycled",
			res.SyzkallerRecycleRate, res.OzzRecycleRate)
	}
}

// TestRunOFenceCounts: the §6.4 harness reproduces 8-of-11 outside the
// patterns and every row matches its ground truth.
func TestRunOFenceCounts(t *testing.T) {
	rows, misses := RunOFence()
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	if misses != 8 {
		t.Fatalf("misses = %d, want 8", misses)
	}
	for _, r := range rows {
		if r.Detected != r.Bug.OFencePattern {
			t.Errorf("bug %s: detection disagrees with ground truth", r.Bug.ID)
		}
	}
	if out := FormatOFence(rows, misses); !strings.Contains(out, "8 of 11") {
		t.Errorf("FormatOFence output malformed:\n%s", out)
	}
}

// TestRunTable3AllFound: the Table 3 harness finds all 11 bugs within a
// modest budget.
func TestRunTable3AllFound(t *testing.T) {
	rows := RunTable3(80)
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Found {
			t.Errorf("bug %s not found", r.Bug.ID)
		}
	}
}

// TestRunTable4Shape: all 9 reproduce (sbitmap via OOO's cross-CPU
// move); the S-S/L-L split matches the paper's corpus (6+3 with the
// sbitmap S-S row included); the pinned-thread control stays negative.
func TestRunTable4Shape(t *testing.T) {
	rows := RunTable4(80)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	repro, ss, ll := 0, 0, 0
	for _, r := range rows {
		if !r.Found {
			t.Errorf("bug %s not reproduced", r.Bug.ID)
			continue
		}
		repro++
		switch r.Bug.Type {
		case "S-S":
			ss++
		case "L-L":
			ll++
		}
	}
	if repro != 9 {
		t.Errorf("reproduced %d, want 9", repro)
	}
	if ss != 6 || ll != 3 {
		t.Errorf("type split %d S-S / %d L-L, want 6/3", ss, ll)
	}
	if pinned := RunSbitmapPinned(80); pinned.Found {
		t.Error("sbitmap reproduced under pinned-thread OOO; the negative control must stay negative")
	}
}

// TestHeuristicFrontLoaded: the triggering-rank distribution is dominated
// by rank 1 (the §4.3 claim).
func TestHeuristicFrontLoaded(t *testing.T) {
	rows, dist := RunHeuristic(80)
	if len(rows) < 15 {
		t.Fatalf("only %d bugs measured", len(rows))
	}
	if dist[1] <= len(rows)/2 {
		t.Errorf("rank-1 triggers %d of %d — heuristic not front-loaded", dist[1], len(rows))
	}
}

// TestKCSANComparisonShape reproduces the §7 table: KCSAN fires only on the
// plain race; OZZ fires on all three.
func TestKCSANComparisonShape(t *testing.T) {
	rows := RunKCSANComparison(80)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[0].KCSANFinds {
		t.Error("KCSAN missed the plain data race")
	}
	if rows[1].KCSANFinds || rows[2].KCSANFinds {
		t.Error("KCSAN fired on an annotated/race-free scenario")
	}
	for _, r := range rows {
		if !r.OzzFinds {
			t.Errorf("OZZ missed %s", r.Bug)
		}
	}
	_ = modules.AllBugs
}
