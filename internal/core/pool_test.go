package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
	"ozz/internal/syzlang"
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

// covSet copies the pool's coverage into a plain set.
func covSet(p *Pool) map[uint64]struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[uint64]struct{}, p.cov.Len())
	for _, e := range p.cov.Edges() {
		out[e] = struct{}{}
	}
	return out
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
		cov:     covSet(p),
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
// guarantee to campaigns that name the retired "migration" strategy label,
// which the repository benchmark still passes: the label selects exactly
// the default strategy, whose campaign migrates (Stats.Migrations > 0),
// and a fixed-seed campaign under it produces byte-identical results —
// counters, coverage, corpus, reports, and discovery order — at 1, 2, and
// 8 workers. The base run is the 1-worker (serial-order) campaign.
func TestPoolStrategyDeterministicAcrossWorkers(t *testing.T) {
	const steps = 120
	t.Run("migration", func(t *testing.T) {
		base := fingerprintUnder(t, "migration", 1, steps)
		if base.stats.MTIs == 0 || len(base.cov) == 0 {
			t.Fatalf("campaign did no work: %+v", base.stats)
		}
		if base.stats.Migrations == 0 {
			t.Error("Stats.Migrations = 0: the default strategy never migrated")
		}
		if def := fingerprintUnder(t, "", 1, steps); !reflect.DeepEqual(def, base) {
			t.Error(`the "migration" label diverged from the default strategy`)
		}
		for _, workers := range []int{2, 8} {
			got := fingerprintUnder(t, "migration", workers, steps)
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
	if !reflect.DeepEqual(covSet(whole), covSet(split)) {
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

// TestMergeCoverageAttribution pins the order merge publishes coverage
// in: steps in index order, and within a step the STI edges before the
// MTI edges. Only STI novelty admits a program to the corpus.
func TestMergeCoverageAttribution(t *testing.T) {
	p := NewPool(Config{Seed: 1}, 1)
	steps := []jobResult{
		{stiCov: []uint64{1, 2}, mtiCov: []uint64{3, 1}},
		// Edge 3 came from step 0's MTI: this STI is not new.
		{stiCov: []uint64{3}, mtiCov: []uint64{4}},
		// The step's own MTI also hits 5, but its STI merges first.
		{stiCov: []uint64{5}, mtiCov: []uint64{5, 6}},
		{stiCov: []uint64{2, 4}},
	}
	var found []*report.Report
	p.mu.Lock()
	for i := range steps {
		steps[i].idx = uint64(i)
		steps[i].prog = &syzlang.Program{}
		p.merge(&steps[i], &found)
	}
	p.mu.Unlock()
	if len(p.corpus) != 2 || p.corpus[0] != steps[0].prog || p.corpus[1] != steps[2].prog {
		t.Errorf("corpus admitted %d programs, want steps 0 and 2", len(p.corpus))
	}
	if s := p.Stats(); s.NewCov != 2 || s.Steps != 4 {
		t.Errorf("NewCov = %d, Steps = %d; want 2 and 4", s.NewCov, s.Steps)
	}
	if got := p.CoverageEdges(); got != 6 {
		t.Errorf("CoverageEdges = %d, want 6", got)
	}
}

// TestPoolConcurrentReaders: coverage, stats and reports stay readable
// while a multi-worker campaign merges, and never move backwards. Run
// under -race, it checks that every reader takes the merger's locks.
func TestPoolConcurrentReaders(t *testing.T) {
	p := NewPool(Config{Seed: 5, UseSeeds: true, Bugs: allBugSwitches()}, 2)
	stop := make(chan struct{})
	errs := make(chan string, 1)
	go func() {
		defer close(errs)
		var edges, reports int
		var steps uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			e, s, r := p.CoverageEdges(), p.Stats().Steps, p.Reports.Len()
			if e < edges || s < steps || r < reports {
				errs <- fmt.Sprintf("went backwards: edges %d->%d, steps %d->%d, reports %d->%d",
					edges, e, steps, s, reports, r)
				return
			}
			edges, steps, reports = e, s, r
			runtime.Gosched()
		}
	}()
	p.RunFor(200 * time.Millisecond)
	close(stop)
	for msg := range errs {
		t.Error(msg)
	}
	if p.CoverageEdges() == 0 || p.Stats().Steps == 0 {
		t.Fatalf("campaign did no work: %+v", p.Stats())
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

// TestNewPoolSizeIndependentOfProgLen: building a pool allocates the same
// whatever the program length, since call pairs are walked per step, not
// tabulated up front. A pool with a huge ProgLen still runs its steps.
func TestNewPoolSizeIndependentOfProgLen(t *testing.T) {
	allocated := func(progLen int) uint64 {
		best := ^uint64(0)
		for r := 0; r < 3; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			NewPool(Config{Seed: 1, ProgLen: progLen}, 1)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := allocated(8), allocated(200)
	if large > small+16<<10 {
		t.Errorf("NewPool allocated %d B at ProgLen 200, %d B at ProgLen 8", large, small)
	}
	p := NewPool(Config{Seed: 1, ProgLen: 200, MaxPairs: 2}, 1)
	p.Run(2)
	if st := p.Stats(); st.Steps != 2 {
		t.Errorf("ran %d steps, want 2", st.Steps)
	}
}

// TestBatchSpreadsWorkers: in one 16-step batch at width 4, worker k runs
// step k-1 before it claims any other step, so every worker runs at least
// one step however the goroutines are scheduled, and every step runs
// exactly once.
func TestBatchSpreadsWorkers(t *testing.T) {
	var events bytes.Buffer
	ev := obs.NewEventLog(&events, obs.LevelInfo)
	p := NewPool(Config{Seed: 1, UseSeeds: true, Events: ev}, 4)
	p.Run(16)
	if err := ev.Err(); err != nil {
		t.Fatalf("event log error: %v", err)
	}
	first := map[int]int{} // worker -> its first step
	ran := map[int]int{}   // step -> times run
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if e.Kind != "step" {
			continue
		}
		step := int(e.Fields["step"].(float64))
		ran[step]++
		if _, ok := first[e.Worker]; !ok {
			first[e.Worker] = step
		}
	}
	for w := 1; w <= 4; w++ {
		if step, ok := first[w]; !ok || step != w-1 {
			t.Errorf("worker %d: first step %d (ran any: %v), want %d", w, step, ok, w-1)
		}
	}
	for step := 0; step < 16; step++ {
		if ran[step] != 1 {
			t.Errorf("step %d ran %d times, want once", step, ran[step])
		}
	}
	if len(ran) != 16 {
		t.Errorf("step events for %d distinct steps, want 16", len(ran))
	}
}

// BenchmarkPoolRun measures a 64-step campaign at width 1, the way hunts,
// repair bug ops and ozz-repro run one: two batches, each handed to the
// single worker at once, on a fresh pool per op so every op runs the same
// steps.
func BenchmarkPoolRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPool(Config{Seed: 1, UseSeeds: true}, 1)
		p.Run(64)
		if st := p.Stats(); st.Steps != 64 {
			b.Fatalf("ran %d steps, want 64", st.Steps)
		}
	}
}
