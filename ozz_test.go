package ozz

import (
	"strings"
	"testing"
)

// TestFacadeFuzzerRoundTrip drives the public facade end to end: build a
// campaign from the root package, find the Fig. 1 bug, and read the
// report — the README quickstart in test form.
func TestFacadeFuzzerRoundTrip(t *testing.T) {
	p := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Bugs:     Bugs("watchqueue:pipe_wmb"),
		Seed:     1,
		UseSeeds: true,
	}, 1)
	r := p.RunUntil("BUG: unable to handle kernel NULL pointer dereference in pipe_read", 60)
	if r == nil {
		t.Fatal("facade campaign did not find the Fig. 1 bug")
	}
	if !r.OOO || r.Type != "S-S" || !strings.Contains(r.HypBarrier, "post_one_notification") {
		t.Fatalf("report malformed: %+v", r)
	}
}

// TestFacadeCorpusMetadata: the corpus is visible through the facade with
// the paper's row counts.
func TestFacadeCorpusMetadata(t *testing.T) {
	t3, t4 := 0, 0
	for _, b := range AllBugs() {
		switch b.Table {
		case 3:
			t3++
		case 4:
			t4++
		}
	}
	if t3 != 11 || t4 != 9 {
		t.Fatalf("corpus rows %d/%d, want 11/9", t3, t4)
	}
}

// TestFacadeHarnessExports: the re-exported harnesses run.
func TestFacadeHarnessExports(t *testing.T) {
	rows := RunLMBench(200)
	if len(rows) != 10 {
		t.Fatalf("LMBench rows = %d", len(rows))
	}
	if out := FormatLMBench(rows); !strings.Contains(out, "Overhead") {
		t.Fatalf("FormatLMBench: %q", out)
	}
	ofRows, misses := RunOFence()
	if len(ofRows) != 11 || misses != 8 {
		t.Fatalf("OFence: %d rows, %d misses", len(ofRows), misses)
	}
}
