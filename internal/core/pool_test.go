package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
	"ozz/internal/sched"
	"ozz/internal/trace"
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
	return fingerprintPool(NewPool(Config{Seed: 7, UseSeeds: true, Bugs: allBugSwitches(), Strategy: strategy}, workers), steps)
}

// fingerprintPool runs one Run call per entry of runs, each of that
// many steps, and captures p's fingerprint.
func fingerprintPool(p *Pool, runs ...int) campaignFingerprint {
	return snapshot(p, runTitles(p, runs...))
}

// runTitles runs one Run call per entry of runs and returns the titles
// the calls published, in order.
func runTitles(p *Pool, runs ...int) []string {
	var found []string
	for _, steps := range runs {
		for _, r := range p.Run(steps) {
			found = append(found, r.Title)
		}
	}
	return found
}

// snapshot captures p's fingerprint, found being the titles its Run calls
// returned.
func snapshot(p *Pool, found []string) campaignFingerprint {
	s := p.Stats()
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
		titles:  p.Reports.set.Titles(),
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
	if ws, ss := whole.Stats(), split.Stats(); ws != ss {
		t.Errorf("split runs diverged: %+v vs %+v", ss, ws)
	}
	if !reflect.DeepEqual(covSet(whole), covSet(split)) {
		t.Errorf("split runs diverged in coverage")
	}
}

// TestPoolResumeKeepsWorkers: workers keep their step scratch across Run
// calls, and that changes nothing. Batch-aligned splits, and a pool
// widened between two Run calls, equal one uninterrupted Run; 96 Run(1)
// calls, whose one-step batches feed the corpus after every step, equal
// the same calls on a pool that drops its workers before each call.
// Compared: Stats, coverage, corpus, discovery order and every rendered
// report.
func TestPoolResumeKeepsWorkers(t *testing.T) {
	const steps = 96
	newPool := func(workers int) *Pool {
		return NewPool(Config{Seed: 7, UseSeeds: true, Bugs: allBugSwitches()}, workers)
	}
	compare := func(name string, got, want campaignFingerprint) {
		t.Helper()
		if got.stats != want.stats {
			t.Errorf("%s: stats = %+v, want %+v", name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.cov, want.cov) {
			t.Errorf("%s: coverage diverged: %d edges vs %d", name, len(got.cov), len(want.cov))
		}
		if !reflect.DeepEqual(got.corpus, want.corpus) {
			t.Errorf("%s: corpus diverged (%d vs %d programs)", name, len(got.corpus), len(want.corpus))
		}
		if !reflect.DeepEqual(got.reports, want.reports) {
			t.Errorf("%s: rendered reports diverged", name)
		}
		if !reflect.DeepEqual(got.found, want.found) {
			t.Errorf("%s: discovery order = %v, want %v", name, got.found, want.found)
		}
	}

	whole := fingerprintPool(newPool(2), steps)
	if len(whole.reports) == 0 || whole.stats.MTIs == 0 {
		t.Fatalf("campaign found nothing: %+v", whole.stats)
	}
	compare("3 x Run(32)", fingerprintPool(newPool(2), 32, 32, 32), whole)
	widened := newPool(1)
	found := runTitles(widened, 32)
	widened.Workers = 2
	found = append(found, runTitles(widened, steps-32)...)
	compare("width 1, then 2", snapshot(widened, found), whole)

	ones := make([]int, steps)
	for i := range ones {
		ones[i] = 1
	}
	fresh := newPool(2)
	found = nil
	for range ones {
		dropWorkers(fresh)
		found = append(found, runTitles(fresh, 1)...)
	}
	want := snapshot(fresh, found)
	if len(want.reports) == 0 {
		t.Fatalf("one-step batches found nothing: %+v", want.stats)
	}
	compare("96 x Run(1)", fingerprintPool(newPool(2), ones...), want)
}

// TestPoolsShareTarget: pools over the same module list share one
// syzlang target, and two width-2 pools running at once on it (run this
// under -race) each walk the campaign a lone pool walks.
func TestPoolsShareTarget(t *testing.T) {
	cfg := Config{Seed: 5, UseSeeds: true, Bugs: table34Switches()}
	want := fingerprintPool(NewPool(cfg, 2), 256)
	pools := [2]*Pool{NewPool(cfg, 2), NewPool(cfg, 2)}
	if pools[0].target != pools[1].target || pools[0].target != modules.Target() {
		t.Fatal("pools over the same module list built their own targets")
	}
	var got [2]campaignFingerprint
	var wg sync.WaitGroup
	for k, p := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = fingerprintPool(p, 256)
		}()
	}
	wg.Wait()
	for k := range got {
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("pool %d, run beside another: %+v\nwant %+v", k, got[k].stats, want.stats)
		}
	}
}

// outcome returns a copy of r without its wall-clock duration: what a
// deterministic run must reproduce.
func outcome(r *STIResult) STIResult {
	c := *r
	c.Dur = 0
	return c
}

// TestMergeCoverageAttribution pins the order merge publishes coverage
// in: steps in index order, and within a step the STI edges before the
// MTI edges. Only STI novelty admits a program to the corpus, as a copy
// of the step's program.
func TestMergeCoverageAttribution(t *testing.T) {
	p := NewPool(Config{Seed: 1}, 1)
	target := modules.Target("watchqueue")
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
		prog, err := target.Parse(fmt.Sprintf("r0 = wq_create()\nwq_post_notification(r0, 0x%x)\n", i))
		if err != nil {
			t.Fatal(err)
		}
		steps[i].idx = uint64(i)
		steps[i].prog = prog
		p.merge(&steps[i], &found)
	}
	p.mu.Unlock()
	if len(p.corpus) != 2 || p.corpus[0].Key() != steps[0].prog.Key() || p.corpus[1].Key() != steps[2].prog.Key() {
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
	if p.Stats().CorpusLen == 0 {
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
	if n != p.Stats().CorpusLen {
		t.Errorf("round trip imported %d of %d programs", n, p.Stats().CorpusLen)
	}
	if n2, _ := q.ReadCorpus(strings.NewReader(sb.String())); n2 != 0 {
		t.Errorf("re-import enqueued %d duplicates, want 0", n2)
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

// goroutineProbe is the OOO strategy sampling runtime.NumGoroutine each
// time an MTI run attaches it, inside a campaign step.
type goroutineProbe struct {
	engine.OOO
	mu      sync.Mutex
	samples []int
}

func (g *goroutineProbe) Attach(k *kernel.Kernel, req *engine.Request) {
	n := runtime.NumGoroutine()
	g.mu.Lock()
	g.samples = append(g.samples, n)
	g.mu.Unlock()
	g.OOO.Attach(k, req)
}

// settledGoroutines returns runtime.NumGoroutine once goroutines that are
// exiting have gone: two reads a millisecond apart agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for try := 0; try < 100; try++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// warmRunners leaves n idle engine runners whose pair sessions keep their
// carriers: n engine workers each run one MTI while all n are held. A
// warm-up pool cannot promise that, since a worker that only ran steps
// without MTIs starts no carrier.
func warmRunners(t *testing.T, n int) {
	env := NewEnv([]string{"watchqueue"}, nil)
	p, err := modules.Target("watchqueue").Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	sti := env.RunSTI(p)
	hs := hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
	if len(hs) == 0 {
		t.Fatal("no hints for the warm-up pair")
	}
	ws := make([]*engine.Worker, n)
	for i := range ws {
		ws[i] = env.eng.Worker()
		ws[i].Run(env.config(), engine.OOO{}, MTIOpts{Prog: p, I: 1, J: 2, Hint: hs[0]})
	}
	for _, w := range ws {
		w.Close()
	}
}

// TestPoolRunGoroutines: the coordinator runs worker 0's steps itself, so
// a width-1 Run starts no goroutine and a width-2 Run exactly one. Steps
// sample the goroutine count; runners for the width are warmed first, so
// the engine runners the measured run takes already keep their pair
// sessions' carriers.
func TestPoolRunGoroutines(t *testing.T) {
	cfg := Config{Seed: 1, UseSeeds: true}
	for _, width := range []int{1, 2} {
		warmRunners(t, width)
		probe := new(goroutineProbe)
		p := NewPool(cfg, width)
		p.Env().Strategy = probe
		before := settledGoroutines()
		p.Run(64)
		if len(probe.samples) == 0 {
			t.Fatalf("width %d: no step ran an MTI", width)
		}
		for _, n := range probe.samples {
			if n != before+width-1 {
				t.Fatalf("width %d: %d goroutines inside a step, want %d started over the %d before Run",
					width, n, width-1, before)
			}
		}
	}
}

// errInjected is the non-crash panic value panicPolicy raises.
var errInjected = fmt.Errorf("injected simulator fault")

// panicPolicy panics with errInjected at the pair's first scheduling
// point: a fault of the simulator itself, which the engine re-raises.
type panicPolicy struct{ sched.Policy }

func (panicPolicy) OnYield(*sched.Task, trace.InstrID) (int, bool) { panic(errInjected) }

// panicOOO is OOO with its pair policy wrapped in panicPolicy.
type panicOOO struct{ engine.OOO }

func (panicOOO) Pair(req *engine.Request, plan *engine.PairPlan) bool {
	if !(engine.OOO{}).Pair(req, plan) {
		return false
	}
	plan.Policy = panicPolicy{plan.Policy}
	return true
}

// TestPoolRunPanicUnwinds: a panic in worker 0's step unwinds Run on the
// coordinator, and once it is recovered no worker goroutine is left
// parked. A one-step Run at width 2 hands the step to worker 0 only, so
// worker 1 waits on its wake channel the whole time; the step runs
// watchqueue's seed, whose racing pair has hints.
func TestPoolRunPanicUnwinds(t *testing.T) {
	p := NewPool(Config{Seed: 1, UseSeeds: true, Modules: []string{"watchqueue"}}, 2)
	p.Env().Strategy = panicOOO{}
	func() {
		defer func() {
			if v := recover(); v != errInjected {
				t.Fatalf("Run recovered %v, want the injected fault", v)
			}
		}()
		p.Run(1)
	}()
	buf := make([]byte, 1<<20)
	for try := 0; ; try++ {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "core.(*Pool).run.func") {
			break
		}
		if try == 100 {
			t.Fatalf("a pool worker goroutine is left after the panic:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkPoolRun measures a 64-step campaign at width 1, the way hunts,
// repair bug ops and ozz-repro run one: two batches, each run by the
// coordinator itself, on a fresh pool per op so every op runs the same
// steps.
func BenchmarkPoolRun(b *testing.B) { benchPoolRun(b, 1) }

// BenchmarkPoolRunWidth2 is BenchmarkPoolRun at width 2, the clean
// workload's: two workers run steps at once, each on the engine runner it
// holds, and the coordinator flushes their metric tallies at the batch
// barriers.
func BenchmarkPoolRunWidth2(b *testing.B) { benchPoolRun(b, 2) }

// benchPoolRun runs a 64-step campaign per op at the given width.
func benchPoolRun(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPool(Config{Seed: 1, UseSeeds: true}, workers)
		p.Run(64)
		if st := p.Stats(); st.Steps != 64 {
			b.Fatalf("ran %d steps, want 64", st.Steps)
		}
	}
}
