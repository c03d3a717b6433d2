package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ozz/internal/modules"
	"ozz/internal/report"
)

func allBugSwitches() modules.BugSet {
	var names []string
	for _, b := range modules.AllBugs() {
		names = append(names, b.Switch)
	}
	return modules.Bugs(names...)
}

// campaignFingerprint runs a fixed-seed pool campaign and captures every
// deterministic observable: counters, coverage, corpus, and reports.
type campaignFingerprint struct {
	stats   Stats
	cov     map[uint64]struct{}
	corpus  []string
	titles  []string
	reports []string
	found   []string // discovery order of Run's return value
}

func fingerprint(t *testing.T, workers, steps int) campaignFingerprint {
	t.Helper()
	return fingerprintUnder(t, "", workers, steps)
}

// fingerprintUnder is fingerprint with the engine strategy selectable
// ("" = default OOO).
func fingerprintUnder(t *testing.T, strategy string, workers, steps int) campaignFingerprint {
	t.Helper()
	p := NewPool(Config{Seed: 7, UseSeeds: true, Bugs: allBugSwitches(), Strategy: strategy}, workers)
	var found []string
	for _, r := range p.Run(steps) {
		found = append(found, r.Title)
	}
	s := p.Stats()
	s.Perf = PerfStats{} // scheduling-dependent; excluded from comparison
	var corpus []string
	for _, q := range p.CorpusPrograms() {
		corpus = append(corpus, q.String())
	}
	var reports []string
	for _, r := range p.Reports.All() {
		reports = append(reports, r.String())
	}
	return campaignFingerprint{
		stats:   s,
		cov:     p.Cov.Snapshot(),
		corpus:  corpus,
		titles:  p.Reports.Titles(),
		reports: reports,
		found:   found,
	}
}

// TestPoolDeterministicAcrossWorkers is the executor's core guarantee: a
// fixed-seed campaign produces byte-identical results at any worker count.
func TestPoolDeterministicAcrossWorkers(t *testing.T) {
	const steps = 150
	base := fingerprint(t, 1, steps)
	if base.stats.Steps != steps {
		t.Fatalf("steps = %d, want %d", base.stats.Steps, steps)
	}
	if base.stats.MTIs == 0 || len(base.cov) == 0 {
		t.Fatalf("campaign did no work: %+v", base.stats)
	}
	if len(base.titles) == 0 {
		t.Fatalf("campaign with all bugs enabled found nothing")
	}
	for _, workers := range []int{2, 4} {
		got := fingerprint(t, workers, steps)
		if got.stats != base.stats {
			t.Errorf("workers=%d stats = %+v, want %+v", workers, got.stats, base.stats)
		}
		if !reflect.DeepEqual(got.cov, base.cov) {
			t.Errorf("workers=%d coverage diverged: %d edges vs %d", workers, len(got.cov), len(base.cov))
		}
		if !reflect.DeepEqual(got.corpus, base.corpus) {
			t.Errorf("workers=%d corpus diverged (%d vs %d programs)", workers, len(got.corpus), len(base.corpus))
		}
		if !reflect.DeepEqual(got.titles, base.titles) {
			t.Errorf("workers=%d titles = %v, want %v", workers, got.titles, base.titles)
		}
		if !reflect.DeepEqual(got.reports, base.reports) {
			t.Errorf("workers=%d full reports diverged (Tests/HintRank rebasing?)", workers)
		}
		if !reflect.DeepEqual(got.found, base.found) {
			t.Errorf("workers=%d discovery order = %v, want %v", workers, got.found, base.found)
		}
	}
}

// TestPoolStrategyDeterministicAcrossWorkers extends the executor's core
// guarantee to the Migration and Deferred strategies: a fixed-seed campaign
// under either strategy produces byte-identical results — counters
// (including the strategy's own Migrations/DeferredTasks), coverage,
// corpus, reports, and discovery order — at 1, 2, and 8 workers. The base
// run is the 1-worker (serial-order) campaign.
func TestPoolStrategyDeterministicAcrossWorkers(t *testing.T) {
	const steps = 120
	for _, strategy := range []string{"migration", "deferred"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			base := fingerprintUnder(t, strategy, 1, steps)
			if base.stats.MTIs == 0 || len(base.cov) == 0 {
				t.Fatalf("campaign did no work: %+v", base.stats)
			}
			switch strategy {
			case "migration":
				if base.stats.Migrations == 0 {
					t.Error("Stats.Migrations = 0: the strategy never migrated")
				}
			case "deferred":
				if base.stats.DeferredTasks == 0 {
					t.Error("Stats.DeferredTasks = 0: the strategy never spawned a handler")
				}
			}
			for _, workers := range []int{2, 8} {
				got := fingerprintUnder(t, strategy, workers, steps)
				if got.stats != base.stats {
					t.Errorf("workers=%d stats = %+v, want %+v", workers, got.stats, base.stats)
				}
				if !reflect.DeepEqual(got.cov, base.cov) {
					t.Errorf("workers=%d coverage diverged: %d edges vs %d", workers, len(got.cov), len(base.cov))
				}
				if !reflect.DeepEqual(got.corpus, base.corpus) {
					t.Errorf("workers=%d corpus diverged (%d vs %d programs)", workers, len(got.corpus), len(base.corpus))
				}
				if !reflect.DeepEqual(got.reports, base.reports) {
					t.Errorf("workers=%d full reports diverged", workers)
				}
				if !reflect.DeepEqual(got.found, base.found) {
					t.Errorf("workers=%d discovery order = %v, want %v", workers, got.found, base.found)
				}
			}
		})
	}
}

// TestPoolResumeDeterministic checks that splitting the same campaign into
// multiple Run calls doesn't change it (the step index stream is global).
func TestPoolResumeDeterministic(t *testing.T) {
	whole := NewPool(Config{Seed: 3, UseSeeds: true}, 2)
	whole.Run(96)
	split := NewPool(Config{Seed: 3, UseSeeds: true}, 2)
	split.Run(32)
	split.Run(64)
	ws, ss := whole.Stats(), split.Stats()
	ws.Perf, ss.Perf = PerfStats{}, PerfStats{}
	if ws != ss {
		t.Errorf("split runs diverged: %+v vs %+v", ss, ws)
	}
	if !reflect.DeepEqual(whole.Cov.Snapshot(), split.Cov.Snapshot()) {
		t.Errorf("split runs diverged in coverage")
	}
}

// TestRecycledKernelEquivalence verifies the sync.Pool recycler: executions
// on a recycled kernel are indistinguishable from a fresh environment's.
func TestRecycledKernelEquivalence(t *testing.T) {
	prog := "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"
	run := func(e *Env) *STIResult {
		p, err := modules.Target("watchqueue").Parse(prog)
		if err != nil {
			t.Fatal(err)
		}
		return e.RunSTI(p)
	}
	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb"))
	first := run(env)
	// Subsequent runs recycle the kernel released by the first.
	for i := 0; i < 3; i++ {
		again := run(env)
		if !reflect.DeepEqual(again.Cov, first.Cov) {
			t.Fatalf("run %d: coverage diverged on recycled kernel", i)
		}
		if !reflect.DeepEqual(again.Returns, first.Returns) {
			t.Fatalf("run %d: returns diverged on recycled kernel", i)
		}
		if len(again.CallEvents) != len(first.CallEvents) {
			t.Fatalf("run %d: call count diverged", i)
		}
		for c := range again.CallEvents {
			if !reflect.DeepEqual(again.CallEvents[c], first.CallEvents[c]) {
				t.Fatalf("run %d: call %d profile diverged on recycled kernel", i, c)
			}
		}
	}
	recycled, built := env.KernelCounters()
	if recycled == 0 {
		t.Fatalf("kernel pool never recycled (recycled=%d built=%d)", recycled, built)
	}
}

// TestSTICacheHits verifies the profile cache memoizes identical programs
// and that cached results match fresh ones.
func TestSTICacheHits(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, nil)
	p, err := modules.Target("watchqueue").Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\n")
	if err != nil {
		t.Fatal(err)
	}
	fresh := env.RunSTI(p)
	first := env.RunSTICached(p)
	second := env.RunSTICached(p)
	if first != second {
		t.Errorf("cache did not memoize: distinct results for identical program")
	}
	if !reflect.DeepEqual(first.Cov, fresh.Cov) {
		t.Errorf("cached coverage differs from fresh run")
	}
	hits, misses := env.STICacheCounters()
	if hits == 0 || misses == 0 {
		t.Errorf("cache counters hits=%d misses=%d, want both nonzero", hits, misses)
	}
}

// TestShardedCov exercises the striped set against a plain map.
func TestShardedCov(t *testing.T) {
	c := NewShardedCov()
	a := map[uint64]struct{}{1: {}, 2: {}, 1 << 40: {}}
	b := map[uint64]struct{}{2: {}, 3: {}}
	if got := c.MergeNew(a); got != 3 {
		t.Errorf("MergeNew(a) = %d, want 3", got)
	}
	if got := c.MergeNew(b); got != 1 {
		t.Errorf("MergeNew(b) = %d, want 1", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	want := map[uint64]struct{}{1: {}, 2: {}, 3: {}, 1 << 40: {}}
	if !reflect.DeepEqual(c.Snapshot(), want) {
		t.Errorf("Snapshot = %v, want %v", c.Snapshot(), want)
	}
}

// TestMergeNewOrderedEquivalence: the shard-grouped batch merge must
// produce exactly the per-map novelty counts and final set that merging
// the maps one at a time with MergeNew would — including nil maps,
// cross-map duplicates (earliest map wins), and reused scratch.
func TestMergeNewOrderedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var batch MergeBatch
	for round := 0; round < 20; round++ {
		maps := make([]map[uint64]struct{}, rng.Intn(8))
		for i := range maps {
			if rng.Intn(5) == 0 {
				continue // leave nil, like a crashed step's mtiCov
			}
			m := make(map[uint64]struct{})
			for n := rng.Intn(40); n > 0; n-- {
				m[uint64(rng.Intn(64))<<uint(rng.Intn(3)*20)] = struct{}{}
			}
			maps[i] = m
		}
		serial := NewShardedCov()
		want := make([]int, len(maps))
		for i, m := range maps {
			if m != nil {
				want[i] = serial.MergeNew(m)
			}
		}
		batched := NewShardedCov()
		got := batched.MergeNewOrdered(maps, &batch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: novelty counts %v, want %v", round, got, want)
		}
		if !reflect.DeepEqual(batched.Snapshot(), serial.Snapshot()) {
			t.Fatalf("round %d: batched set diverges from serial set", round)
		}
		// Merging the same maps again must report zero novelty everywhere.
		again := batched.MergeNewOrdered(maps, &batch)
		for i, n := range again {
			if n != 0 {
				t.Fatalf("round %d: re-merge map %d reported %d new edges", round, i, n)
			}
		}
	}
}

// TestSafeReportSetDedup checks title-level dedup through the guard.
func TestSafeReportSetDedup(t *testing.T) {
	s := NewSafeReportSet()
	if !s.Add(&report.Report{Title: "a"}) || s.Add(&report.Report{Title: "a"}) {
		t.Errorf("dedup broken")
	}
	if s.Len() != 1 || s.Get("a") == nil {
		t.Errorf("set state wrong after dedup")
	}
}

// TestPoolCorpusRoundTrip streams a pool corpus out and back in.
func TestPoolCorpusRoundTrip(t *testing.T) {
	p := NewPool(Config{Seed: 11, UseSeeds: true}, 2)
	p.Run(64)
	if p.CorpusLen() == 0 {
		t.Skip("campaign grew no corpus")
	}
	var sb strings.Builder
	if err := p.WriteCorpus(&sb); err != nil {
		t.Fatal(err)
	}
	// A seedless pool has nothing queued, so every corpus program is new;
	// with UseSeeds the import would skip programs already pending as
	// module seeds (ReadCorpus dedups by Program.Key()).
	q := NewPool(Config{Seed: 11}, 2)
	n, err := q.ReadCorpus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != p.CorpusLen() {
		t.Errorf("round trip imported %d of %d programs", n, p.CorpusLen())
	}
	if n2, _ := q.ReadCorpus(strings.NewReader(sb.String())); n2 != 0 {
		t.Errorf("re-import enqueued %d duplicates, want 0", n2)
	}
}

// TestPoolMetricsLine sanity-checks the -v metrics output.
func TestPoolMetricsLine(t *testing.T) {
	p := NewPool(Config{Seed: 1, UseSeeds: true}, 2)
	p.Run(32)
	line := p.Stats().MetricsLine()
	for _, want := range []string{"tests/s", "sti-cache", "kernel-pool", "2 workers"} {
		if !strings.Contains(line, want) {
			t.Errorf("metrics line %q missing %q", line, want)
		}
	}
}
