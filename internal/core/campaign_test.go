package core

import (
	"reflect"
	"testing"

	"ozz/internal/modules"
)

// TestFuzzerFindsFig1Bug runs the full fuzzing loop (generation, profiling,
// hints, MTIs) against the buggy watchqueue module and expects the Fig. 1
// bug within a modest budget.
func TestFuzzerFindsFig1Bug(t *testing.T) {
	p := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Bugs:     modules.Bugs("watchqueue:pipe_wmb"),
		Seed:     1,
		UseSeeds: true,
	}, 1)
	r := p.RunUntil("BUG: unable to handle kernel NULL pointer dereference in pipe_read", 50)
	if r == nil {
		t.Fatalf("campaign did not find the Fig. 1 bug in 50 steps (stats %+v)", p.Stats())
	}
	if !r.OOO {
		t.Errorf("bug not classified as OOO: %+v", r)
	}
	if r.Type != "S-S" {
		t.Errorf("expected S-S reordering, got %s", r.Type)
	}
	if r.HypBarrier == "" {
		t.Errorf("report lacks hypothetical barrier location")
	}
}

// TestFuzzerCleanKernelQuiet runs the fuzzer on the fixed module and expects
// zero OOO reports: the hypothetical barrier tests must not produce false
// positives when the real barriers are present.
func TestFuzzerCleanKernelQuiet(t *testing.T) {
	p := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Bugs:     nil,
		Seed:     2,
		UseSeeds: true,
	}, 1)
	p.Run(40)
	for _, r := range p.Reports.All() {
		if r.OOO {
			t.Errorf("false positive on fixed kernel: %s", r.Title)
		}
	}
}

// TestFuzzerWithoutSeeds checks pure generation also reaches the bug (the
// templates alone must suffice, like syzlang descriptions do).
func TestFuzzerWithoutSeeds(t *testing.T) {
	p := NewPool(Config{
		Modules: []string{"watchqueue"},
		Bugs:    modules.Bugs("watchqueue:pipe_wmb"),
		Seed:    3,
	}, 1)
	r := p.RunUntil("BUG: unable to handle kernel NULL pointer dereference in pipe_read", 300)
	if r == nil {
		t.Fatalf("campaign did not find the bug from templates alone (stats %+v)", p.Stats())
	}
}

// TestCrossModelProbe pins the probe's per-model verdict on the Fig. 1
// bug: an S-S reordering reproduces under the weak models (lkmm, armv8)
// but never under tso, whose FIFO store buffer drains older pending
// stores before a later one commits.
func TestCrossModelProbe(t *testing.T) {
	const title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	want := []string{"armv8", "lkmm"}

	p := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Bugs:     modules.Bugs("watchqueue:pipe_wmb"),
		Seed:     1,
		UseSeeds: true,
	}, 2)
	p.Run(50)
	pr := p.Reports.Get(title)
	if pr == nil {
		t.Fatal("pool did not find the Fig. 1 bug in 50 steps")
	}
	if !reflect.DeepEqual(pr.Models, want) {
		t.Errorf("probe: Models = %v, want %v", pr.Models, want)
	}
}

// TestRunUntilMatchesRun pins RunUntil's batch-granular stop at widths 1
// and 4: it returns exactly the report Run(maxSteps) publishes, its step
// count ends at the first batch whose merge published the title, a known
// title returns without running, and a title that never appears runs the
// whole budget.
func TestRunUntilMatchesRun(t *testing.T) {
	const (
		title    = "kernel BUG: Relaxed store buffering: both threads read 0 in rust_check"
		maxSteps = 200
	)
	// No seeds: at this campaign seed the finding lands in the second
	// batch, so the stop is exercised mid-budget.
	cfg := Config{
		Modules: []string{"rustsync"},
		Bugs:    modules.Bugs("rustsync:relaxed_sb"),
		Seed:    2,
	}
	// The finding batch, walked one batch-sized Run at a time.
	probe := NewPool(cfg, 1)
	var wantSteps uint64
	for probe.Reports.Get(title) == nil && wantSteps < maxSteps {
		probe.Run(batchSize)
		wantSteps += batchSize
	}
	if wantSteps <= batchSize || wantSteps >= maxSteps {
		t.Fatalf("title first published after %d steps; the test needs a later batch within the budget", wantSteps)
	}
	for _, workers := range []int{1, 4} {
		whole := NewPool(cfg, workers)
		whole.Run(maxSteps)
		want := whole.Reports.Get(title)
		if want == nil {
			t.Fatalf("workers=%d: Run(%d) did not find %q", workers, maxSteps, title)
		}
		p := NewPool(cfg, workers)
		got := p.RunUntil(title, maxSteps)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: RunUntil report\n%v\nwant Run's\n%v", workers, got, want)
		}
		if steps := p.Stats().Steps; steps != wantSteps {
			t.Errorf("workers=%d: RunUntil stopped after %d steps, want %d", workers, steps, wantSteps)
		}
		if again := p.RunUntil(title, maxSteps); again != got || p.Stats().Steps != wantSteps {
			t.Errorf("workers=%d: RunUntil on a known title ran more steps", workers)
		}

		miss := NewPool(cfg, workers)
		if r := miss.RunUntil("no such title", 40); r != nil {
			t.Errorf("workers=%d: RunUntil returned %v for an unknown title", workers, r)
		}
		if steps := miss.Stats().Steps; steps != 40 {
			t.Errorf("workers=%d: missing title ran %d steps, want 40", workers, steps)
		}
	}
}
