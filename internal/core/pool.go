package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/lazyrand"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/repair"
	"ozz/internal/report"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// batchSize is the number of campaign steps planned, executed, and merged
// per scheduling round of the Pool. It is a fixed constant — deliberately
// independent of the worker count — because it is part of the campaign's
// deterministic semantics: corpus feedback (mutating coverage-growing
// programs) crosses batch boundaries only, so a campaign's results are
// byte-identical at any worker count. Larger than any sane worker count so
// stragglers at the batch barrier cost little parallelism.
const batchSize = 32

// memoCap bounds the step memo. At the cap merge drops the memo wholesale:
// campaigns cycle through generations of programs, so stale entries
// rarely pay rent, and wholesale clearing keeps eviction O(1) and free of
// iteration-order nondeterminism.
const memoCap = 4096

// SafeReportSet wraps report.Set for concurrent use: the campaign merger
// adds findings while progress printers and other goroutines read counts
// and titles.
type SafeReportSet struct {
	mu  sync.Mutex
	set *report.Set
}

// NewSafeReportSet returns an empty guarded set.
func NewSafeReportSet() *SafeReportSet {
	return &SafeReportSet{set: report.NewSet()}
}

// Add inserts the report unless its title is known; reports true when new.
func (s *SafeReportSet) Add(r *report.Report) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Add(r)
}

// Get returns the report with the given title, or nil.
func (s *SafeReportSet) Get(title string) *report.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Get(title)
}

// Len returns the number of unique reports.
func (s *SafeReportSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Len()
}

// All returns the reports in discovery order.
func (s *SafeReportSet) All() []*report.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.All()
}

// Titles returns the sorted unique titles.
func (s *SafeReportSet) Titles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Titles()
}

// Pool is OZZ's fuzzing loop (Fig. 6: generate STI -> profile ->
// calculate scheduling hints -> run MTIs -> collect OOO bug reports) and
// the only campaign executor. N workers execute pipeline steps
// concurrently over a shared Env, each writing only its step's result;
// the batch merger alone publishes into the coverage set and the
// deduplicated, concurrency-guarded report set. Width 1 runs the same
// campaign on a single worker.
//
// Determinism: each step's random stream is derived from (campaign seed,
// step index) — not from a shared sequential generator — and results are
// merged in step-index order at fixed batch boundaries. A campaign with a
// given Config therefore produces byte-identical Stats (modulo the Perf
// timing block), coverage, corpus, and reports at ANY worker count,
// regardless of completion order. Heavy work (kernel executions) runs in
// parallel; only planning and merging are serialized, and both are cheap.
//
// Step memo: a step's outcome is a pure function of its program (the
// engine is deterministic, and the step's random stream is spent on
// picking the program), so a step whose program an earlier batch
// already merged replays the recorded outcome instead of executing. merge
// records executed steps while the workers are parked and workers only
// read the memo during a batch, so which steps replay does not depend on
// timing or width.
type Pool struct {
	// Workers is the executor width. NewPool defaults it to
	// runtime.GOMAXPROCS(0).
	Workers int

	cfg    Config
	env    *Env
	target *syzlang.Target
	co     *campaignObs

	// Reports collects deduplicated findings, concurrently readable.
	Reports *SafeReportSet

	mu      sync.Mutex // guards seeds, corpus, cov, Stats, steps, repairs
	seeds   []*syzlang.Program
	corpus  []*syzlang.Program
	cov     kernel.EdgeSet // campaign coverage; written only by merge
	stats   Stats
	steps   uint64 // next global step index
	start   time.Time
	repairs map[string]*repair.Result

	// memo maps Program.Key to the recorded outcome of an executed step
	// (see record). It is written only by merge and read lock-free by
	// workers during a batch. Only the test seam withoutStepMemo sets it
	// to nil, which disables replay.
	memo map[string]*jobResult

	// ws holds each worker's step scratch across Run calls; run grows it
	// to Workers. Only run and its worker goroutines touch it.
	ws []*worker
}

// NewPool builds a campaign executor of the given width. workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewPool(cfg Config, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.normalize()
	env := newEnvFromConfig(cfg)
	p := &Pool{
		Workers: workers,
		cfg:     cfg,
		env:     env,
		target:  modules.Target(cfg.Modules...),
		co:      newCampaignObs(env.Obs(), cfg.Events),
		Reports: NewSafeReportSet(),
		repairs: make(map[string]*repair.Result),
		memo:    make(map[string]*jobResult),
	}
	p.co.workers.Set(float64(workers))
	if cfg.UseSeeds {
		for _, src := range modules.Seeds(cfg.Modules...) {
			if sp, err := p.target.Parse(src); err == nil {
				p.seeds = append(p.seeds, sp)
			}
		}
	}
	return p
}

// Env exposes the shared execution environment (kernel recycler
// included). Its fields must not change after the first Run: the step
// memo replays outcomes recorded under the Env as it was then.
func (p *Pool) Env() *Env { return p.env }

// RepairResult returns the structured fence-repair search result for a
// finding's title, or nil when repair is disabled or the title is
// unknown. Concurrency-safe.
func (p *Pool) RepairResult(title string) *repair.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.repairs[title]
}

// Obs returns the metrics registry the campaign publishes into.
func (p *Pool) Obs() *obs.Registry { return p.co.reg }

// AddSeeds enqueues programs to run ahead of random generation (corpus
// resume). Call before Run.
func (p *Pool) AddSeeds(ps []*syzlang.Program) {
	p.mu.Lock()
	p.seeds = append(p.seeds, ps...)
	p.mu.Unlock()
}

// Stats returns a copy of the campaign counters (concurrently callable; the
// Perf block is refreshed on every call).
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.CorpusLen = len(p.corpus)
	p.fillPerf(&s)
	return s
}

// CorpusLen returns the current coverage-corpus size.
func (p *Pool) CorpusLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.corpus)
}

// CorpusPrograms returns copies of the corpus programs.
func (p *Pool) CorpusPrograms() []*syzlang.Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*syzlang.Program, len(p.corpus))
	for i, q := range p.corpus {
		out[i] = q.Clone()
	}
	return out
}

// CoverageEdges returns the number of distinct edges covered so far.
func (p *Pool) CoverageEdges() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cov.Len()
}

// fillPerf refreshes the scheduling-dependent Perf block. Caller holds
// p.mu (it reads p.start).
func (p *Pool) fillPerf(s *Stats) {
	s.Perf.Workers = p.Workers
	if !p.start.IsZero() {
		s.Perf.Elapsed = time.Since(p.start)
	}
	s.Perf.KernelsRecycled, s.Perf.KernelsBuilt = p.env.KernelCounters()
	if sec := s.Perf.Elapsed.Seconds(); sec > 0 {
		s.Perf.TestsPerSec = float64(s.Steps) / sec
		s.Perf.ExecsPerSec = float64(s.Perf.KernelsRecycled+s.Perf.KernelsBuilt) / sec
	}
}

// jobSeed derives the random seed of one campaign step from the campaign
// seed and the step's global index (splitmix64 finalizer): step i draws
// from the same stream no matter which worker runs it or when.
func jobSeed(seed int64, idx uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// job is one planned campaign step: the program to test.
type job struct {
	idx  uint64
	prog *syzlang.Program
}

// jobReport is one finding produced inside a job. rebaseTests marks
// reports whose Tests field counts job-local MTIs at discovery time; the
// merger rebases it onto the campaign-cumulative count in index order, so
// the final value is the campaign's MTI count at discovery, at any width.
type jobReport struct {
	r           *report.Report
	rebaseTests bool
	// repair is the finding's fence-repair search result (Config.Repair
	// campaigns); the merger publishes the winning instance's result.
	repair *repair.Result
}

// jobResult is the outcome of one step, merged in index order.
type jobResult struct {
	idx  uint64
	prog *syzlang.Program
	// key is prog's Program.Key, set on executed steps when the memo is
	// on: record files the outcome under it.
	key string
	// replayed marks a step served from the memo: it executed nothing
	// and carries no coverage.
	replayed bool
	stiCov   []uint64 // STI coverage (corpus admission signal)
	// mtiCov is the union of the step's MTI coverage, each edge once.
	mtiCov  []uint64
	reports []jobReport
	mtis    uint64
	hints   uint64
	vacuous uint64
	// migrations mirrors Stats.Migrations for this step's primary MTI
	// loop (a commutative sum, merged in index order).
	migrations uint64
}

// planStep picks step idx's single-threaded input — pending seeds first,
// then mutations of the coverage corpus as of the current batch boundary,
// then fresh generations — using the step's private rng. Caller holds
// p.mu.
func (p *Pool) planStep(idx uint64) job {
	rng := rand.New(lazyrand.New(jobSeed(p.cfg.Seed, idx)))
	var prog *syzlang.Program
	switch {
	case len(p.seeds) > 0:
		prog = p.seeds[0]
		p.seeds = p.seeds[1:]
	case len(p.corpus) > 0 && rng.Intn(3) != 0:
		prog = p.target.Mutate(rng, p.corpus[rng.Intn(len(p.corpus))])
	default:
		// Focus each generated program on one module (syzkaller's call
		// priorities have the same effect): concurrent pairs then operate
		// on shared state, which is what the hypothetical barrier test
		// needs.
		mods := p.target.Modules()
		prog = p.target.GenerateFocused(rng, ProgLen, mods[rng.Intn(len(mods))])
	}
	return job{idx: idx, prog: prog}
}

// worker is one pool worker's identity and the step scratch it reuses
// across steps and Run calls.
type worker struct {
	// id tags the worker's event stream (1..Workers).
	id int
	// mtiCov collects the current step's MTI edges.
	mtiCov kernel.EdgeSet
	// hints is the worker's hint-calculation memory.
	hints hints.Scratch
	// key holds the current step's Program.Key, the step memo's lookup
	// key.
	key []byte
	// prof is the arena the step's STI profiles into. The step's
	// CallEvents are views into it, so nothing that outlives the step may
	// alias them: reports and memo records hold no events, and
	// repair.InVivo copies the events it keeps.
	prof trace.Buffer
	// mti is the result every MTI of the step writes into. It is valid
	// until the next MTI, so harvesting copies what it keeps (titles,
	// edges); the nested runs harvesting starts (triage, cross-model
	// probes, repair) return results of their own.
	mti MTIResult
}

// runJob executes one campaign step: the STI profile (§4.2), then
// scheduling hints and the pair's MTI runs (§4.3, §4.4), writing only to
// the job-local result. A program an earlier batch already merged
// replays its recorded outcome instead.
func (p *Pool) runJob(w *worker, jb job) jobResult {
	res := jobResult{idx: jb.idx, prog: jb.prog}
	if p.memo != nil {
		w.key = jb.prog.AppendKey(w.key[:0])
		if m := p.memo[string(w.key)]; m != nil {
			m.replay(&res)
			return res
		}
		res.key = string(w.key)
	}
	pStart := time.Now()
	sti := p.env.runSTI(jb.prog, &w.prof)
	observe(p.co.stProfile, pStart)
	res.stiCov = sti.Cov
	if sti.Crash != nil {
		res.reports = append(res.reports, jobReport{r: &report.Report{
			Title:   sti.Crash.Title,
			Oracle:  sti.Crash.Oracle,
			OOO:     false,
			Program: jb.prog.String(),
		}})
		return res // crashing input: nothing to pair
	}
	for _, s := range sti.Soft {
		res.reports = append(res.reports, jobReport{r: &report.Report{
			Title: s, Oracle: "semantic", OOO: false, Program: jb.prog.String(),
		}})
	}

	w.mtiCov.Clear()
	// Call pairs (i, i+d), adjacent pairs first — concurrency bugs
	// overwhelmingly involve calls operating on the same just-created
	// resource. Only the first maxPairs pairs are tested.
	n, left := len(jb.prog.Calls), maxPairs
pairs:
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			if left <= 0 {
				break pairs
			}
			left--
			p.runPair(w, &res, jb, sti, i, i+d)
		}
	}
	if w.mtiCov.Len() > 0 {
		res.mtiCov = slices.Clone(w.mtiCov.Edges())
	}
	return res
}

// runPair tests call pair (i, j) of a step: scheduling hints from the
// pair's STI events, then one MTI run per kept hint.
func (p *Pool) runPair(w *worker, res *jobResult, jb job, sti *STIResult, i, j int) {
	if len(sti.CallEvents[i]) == 0 || len(sti.CallEvents[j]) == 0 {
		return
	}
	hStart := time.Now()
	hs := w.hints.CalculateModel(sti.CallEvents[i], sti.CallEvents[j], p.cfg.Model)
	observe(p.co.stHints, hStart)
	res.hints += uint64(len(hs))
	// CalculateModel sorts the hints most-reordered first (§4.3).
	if len(hs) > maxHintsPerPair {
		hs = hs[:maxHintsPerPair]
	}
	for rank, h := range hs {
		mStart := time.Now()
		mres := p.env.RunMTI(MTIOpts{Prog: jb.prog, I: i, J: j, Hint: h, Out: &w.mti})
		observe(p.co.stMTI, mStart)
		res.mtis++
		res.migrations += uint64(mres.Migrations)
		if !mres.Fired {
			res.vacuous++
		}
		for _, e := range mres.Cov {
			w.mtiCov.Add(e)
		}
		p.harvestJob(res, jb.prog, sti.CallEvents, i, j, h, rank, mres)
	}
}

// harvestJob converts an MTI result into job-local reports, with Tests
// counted job-locally (rebased at merge). events is the step's STI
// profile, for the fence-repair search.
func (p *Pool) harvestJob(res *jobResult, prog *syzlang.Program, events [][]trace.Event, i, j int, h *hints.Hint, rank int, mres *MTIResult) {
	if mres.Crash != nil {
		r := &report.Report{
			Title:   mres.Crash.Title,
			Oracle:  mres.Crash.Oracle,
			Program: prog.String(),
		}
		// Triage: re-run the same schedule without reordering directives.
		// If the crash still reproduces in order, it is a plain
		// interleaving race, not an OOO bug.
		ooo := !mres.PrefixCrash
		if ooo {
			tStart := time.Now()
			rerun := p.env.RunMTI(MTIOpts{Prog: prog, I: i, J: j, Hint: h, NoReorder: true})
			observe(p.co.stTriage, tStart)
			ooo = rerun.Crash == nil || rerun.Crash.Title != r.Title
		}
		if ooo {
			for _, s := range h.Reorder {
				r.ReorderedSites = append(r.ReorderedSites, modules.SiteName(s))
			}
			p.addOOOReport(res, r, prog, events, i, j, h, rank, false, func(pr *MTIResult) bool {
				return pr.Crash != nil && pr.Crash.Title == r.Title
			})
		} else {
			res.reports = append(res.reports, jobReport{r: r})
		}
	}
	for _, s := range mres.Soft {
		r := &report.Report{Title: s, Oracle: "semantic", Program: prog.String()}
		p.addOOOReport(res, r, prog, events, i, j, h, rank, true, func(pr *MTIResult) bool {
			return slices.Contains(pr.Soft, s)
		})
	}
}

// addOOOReport completes r as an OOO finding of hint h on pair (i, j) and
// appends it to the step's reports. For a title no earlier batch merged,
// it also probes the other memory models (reproduced tells whether a
// probe run hit the finding) and searches a fence repair. The probe runs
// job-side so it parallelizes with the rest of the batch and Models is
// set before the report is published. The Get only filters titles
// already merged: in-batch duplicates probe and search redundantly but
// deterministically, and only the merge-ordered first instance survives.
func (p *Pool) addOOOReport(res *jobResult, r *report.Report, prog *syzlang.Program, events [][]trace.Event, i, j int, h *hints.Hint, rank int, soft bool, reproduced func(*MTIResult) bool) {
	r.OOO = true
	r.Type = h.Type()
	r.HypBarrier = fmt.Sprintf("before %s (%s)", modules.SiteName(h.Sched), h.Test)
	r.Pair = PairName(prog, i, j)
	r.HintRank = rank + 1
	r.Tests = int(res.mtis)
	jr := jobReport{r: r, rebaseTests: true}
	if p.Reports.Get(r.Title) == nil {
		r.Models = probeModels(p.env, p.cfg.Model, prog, i, j, h, reproduced)
		if jr.repair = repairFinding(p.env, &p.cfg, p.co, prog, events, i, j, h, r.Title, soft); jr.repair != nil {
			r.SuggestedFix = jr.repair.Lines()
		}
	}
	res.reports = append(res.reports, jr)
}

// record memoizes an executed step's outcome under its program key: its
// counts and shallow copies of its reports, taken before merge rebases
// Tests. Coverage is not kept: the campaign EdgeSet only grows, so a
// replay's edges are already merged. Models, SuggestedFix and repair are
// dropped: they are filled only for titles not yet merged, and every
// title the step reported is merged by the time a later batch replays
// it. Caller holds p.mu and the workers are parked.
func (p *Pool) record(res *jobResult) {
	if len(p.memo) >= memoCap {
		clear(p.memo)
	}
	m := &jobResult{
		reports: make([]jobReport, len(res.reports)),
		mtis:    res.mtis, hints: res.hints, vacuous: res.vacuous, migrations: res.migrations,
	}
	for k, jr := range res.reports {
		r := *jr.r
		r.Models, r.SuggestedFix = nil, nil
		m.reports[k] = jobReport{r: &r, rebaseTests: jr.rebaseTests}
	}
	p.memo[res.key] = m
}

// replay fills res, a step testing the program m was recorded for, with
// m's outcome. Each report is a fresh copy, since merge rebases Tests in
// place.
func (m *jobResult) replay(res *jobResult) {
	res.replayed = true
	res.mtis, res.hints, res.vacuous, res.migrations = m.mtis, m.hints, m.vacuous, m.migrations
	res.reports = make([]jobReport, len(m.reports))
	for k, jr := range m.reports {
		r := *jr.r
		res.reports[k] = jobReport{r: &r, rebaseTests: jr.rebaseTests}
	}
}

// merge folds one step result into the campaign state. Called in strict
// step-index order; that ordering is what makes coverage novelty, corpus
// admission, report deduplication, Tests rebasing and the step memo
// deterministic. The step's STI edges merge before its MTI edges, and
// only STI novelty admits the program to the corpus. Caller holds p.mu.
func (p *Pool) merge(res *jobResult, found *[]*report.Report) {
	if res.replayed {
		p.stats.Perf.STICacheHits++
		p.co.memoHits.Inc()
	} else {
		p.stats.Perf.STICacheMisses++
		p.co.memoMisses.Inc()
		if p.memo != nil {
			p.record(res)
		}
	}
	stiNew := false
	for _, e := range res.stiCov {
		if p.cov.Add(e) {
			stiNew = true
		}
	}
	for _, e := range res.mtiCov {
		p.cov.Add(e)
	}
	base := p.stats.MTIs
	p.stats.Steps++
	p.stats.STIs++
	p.stats.MTIs += res.mtis
	p.stats.Hints += res.hints
	p.stats.Vacuous += res.vacuous
	p.stats.Migrations += res.migrations
	p.co.steps.Inc()
	p.co.stis.Inc()
	p.co.mtis.Add(res.mtis)
	p.co.hintsTotal.Add(res.hints)
	p.co.vacuous.Add(res.vacuous)
	if stiNew {
		p.stats.NewCov++
		p.co.newCov.Inc()
		p.corpus = append(p.corpus, res.prog)
		p.stats.CorpusLen = len(p.corpus)
	}
	for _, jr := range res.reports {
		if jr.rebaseTests {
			jr.r.Tests += int(base)
		}
		added := p.Reports.Add(jr.r)
		p.co.reportOutcome(added, jr.r.OOO)
		if added {
			if jr.repair != nil {
				p.repairs[jr.r.Title] = jr.repair
			}
			// Counting divergences here, not at probe time, keeps the
			// counter exact: a title probed redundantly by racing in-batch
			// duplicates still increments once, for the merged instance.
			if len(jr.r.Models) > 0 && len(jr.r.Models) < len(memmodel.All()) {
				p.co.modelDivergences.Inc()
			}
			*found = append(*found, jr.r)
		}
	}
	p.co.corpusLen.Set(float64(len(p.corpus)))
	p.co.covEdges.Set(float64(p.cov.Len()))
}

// Run executes `steps` campaign steps across the pool's workers and
// returns the new reports in deterministic discovery order. Calls to
// Run, RunFor and RunUntil on one Pool must not overlap: workers read
// the step memo without a lock and reuse their scratch across calls.
func (p *Pool) Run(steps int) []*report.Report {
	return p.run(steps, time.Time{}, "")
}

// RunFor executes whole batches until the wall-clock budget is spent and
// returns the new reports. The step sequence is the same deterministic
// sequence Run walks; only where it stops depends on the clock. Like Run,
// it must not overlap another run call on the same Pool.
func (p *Pool) RunFor(budget time.Duration) []*report.Report {
	return p.run(-1, time.Now().Add(budget), "")
}

// RunUntil executes whole batches until one publishes a report with the
// given title, or maxSteps steps have run, and returns that report (nil
// if it never appeared). A title already known returns at once. Because
// it stops only at batch boundaries, the campaign it walks is a prefix of
// Run(maxSteps) and the report it returns is the one Run(maxSteps)
// publishes; Stats include the rest of the finding batch. Like Run, it
// must not overlap another run call on the same Pool.
func (p *Pool) RunUntil(title string, maxSteps int) *report.Report {
	if r := p.Reports.Get(title); r != nil {
		return r
	}
	p.run(maxSteps, time.Time{}, title)
	return p.Reports.Get(title)
}

// run walks the campaign batch by batch until steps steps have run (< 0:
// no limit), the deadline passes (zero: none), or a batch publishes the
// until title ("": never).
//
// Each worker goroutine is woken once per batch, through its own channel,
// so a step costs no goroutine wakeup. Worker k runs the batch's step k
// first, so every woken worker runs at least one step; after that,
// workers claim the remaining steps through an atomic counter and write
// each step's result into its slot of results. The coordinator waits for
// the whole batch, then merges the results in step order.
func (p *Pool) run(steps int, deadline time.Time, until string) []*report.Report {
	if steps == 0 {
		return nil
	}
	p.mu.Lock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.mu.Unlock()

	var (
		batch   = make([]job, batchSize)
		results = make([]jobResult, batchSize)
		n       int          // steps in the current batch
		claimed atomic.Int64 // next unclaimed step of the batch
		pending sync.WaitGroup
		exited  sync.WaitGroup
	)
	for len(p.ws) < p.Workers {
		p.ws = append(p.ws, &worker{id: len(p.ws) + 1})
	}
	wake := make([]chan struct{}, p.Workers)
	for k := range wake {
		wake[k] = make(chan struct{}, 1)
		exited.Add(1)
		go func(k int, w *worker) {
			defer exited.Done()
			for range wake[k] {
				for i := k; i < n; i = int(claimed.Add(1)) - 1 {
					results[i] = p.runJob(w, batch[i])
					p.co.stepEvent(w.id, &results[i])
				}
				pending.Done()
			}
		}(k, p.ws[k])
	}

	var found []*report.Report
	remaining := steps
	for remaining != 0 {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		n = batchSize
		if remaining > 0 && remaining < n {
			n = remaining
		}
		// Plan the batch against the corpus as of this boundary.
		p.mu.Lock()
		for bi := 0; bi < n; bi++ {
			gStart := time.Now()
			batch[bi] = p.planStep(p.steps)
			observe(p.co.stGenerate, gStart)
			p.steps++
		}
		p.mu.Unlock()
		// Execute in parallel: workers 0..m-1 take steps 0..m-1, then
		// claim the rest from m on.
		m := min(p.Workers, n)
		claimed.Store(int64(m))
		pending.Add(m)
		for k := 0; k < m; k++ {
			wake[k] <- struct{}{}
		}
		pending.Wait()
		// Merge in step-index order.
		p.mu.Lock()
		mStart := time.Now()
		for bi := 0; bi < n; bi++ {
			p.merge(&results[bi], &found)
		}
		observe(p.co.stMerge, mStart)
		p.fillPerf(&p.stats)
		p.mu.Unlock()
		clear(results[:n])
		if remaining > 0 {
			remaining -= n
		}
		if until != "" && p.Reports.Get(until) != nil {
			break
		}
	}
	for _, c := range wake {
		close(c)
	}
	exited.Wait()
	return found
}
