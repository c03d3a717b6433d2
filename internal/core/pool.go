package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ozz/internal/hints"
	"ozz/internal/lazyrand"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/repair"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// batchSize is the number of campaign steps planned, executed, and merged
// per scheduling round of the Pool. It is a fixed constant — deliberately
// independent of the worker count — because it is part of the campaign's
// deterministic semantics: corpus feedback (mutating coverage-growing
// programs) crosses batch boundaries only, so a campaign's results are
// byte-identical at any worker count. Larger than any sane worker count so
// stragglers at the batch barrier cost little parallelism.
const batchSize = 32

// covShards is the stripe count of ShardedCov. 64 stripes keep lock
// contention negligible at any realistic worker count.
const covShards = 64

// ShardedCov is a mutex-striped coverage edge set, safe for concurrent
// merging and reading. The final content of the set is independent of merge
// order (set union commutes), so concurrent publication never compromises
// campaign determinism.
type ShardedCov struct {
	shards [covShards]covShard
}

type covShard struct {
	mu sync.Mutex
	m  map[uint64]struct{}
}

// NewShardedCov returns an empty sharded coverage set.
func NewShardedCov() *ShardedCov {
	c := &ShardedCov{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]struct{})
	}
	return c
}

// shardOf spreads edges over stripes by multiplicative hashing (edge values
// are structured — prev<<32|site — so raw low bits would collide).
func shardOf(edge uint64) int {
	return int((edge * 0x9e3779b97f4a7c15) >> (64 - 6))
}

// MergeNew inserts every edge of cov and returns how many were new.
func (c *ShardedCov) MergeNew(cov map[uint64]struct{}) int {
	grew := 0
	for e := range cov {
		s := &c.shards[shardOf(e)]
		s.mu.Lock()
		if _, ok := s.m[e]; !ok {
			s.m[e] = struct{}{}
			grew++
		}
		s.mu.Unlock()
	}
	return grew
}

// covRef is one edge reference inside a MergeBatch, tagged with the index
// of the earliest batch map that contributed it.
type covRef struct {
	edge uint64
	mi   int32
}

// MergeBatch is reusable scratch for MergeNewOrdered: per-shard buckets of
// edge references. A zero value is ready to use; reusing one across calls
// makes steady-state batch merging allocation-free. Not safe for
// concurrent use of the same batch.
type MergeBatch struct {
	buckets [covShards][]covRef
}

// MergeNewOrdered inserts the union of maps into the set with one lock
// round per touched shard — instead of one lock acquisition per edge — and
// returns how many edges each map newly contributed. Novelty is attributed
// in map order: an edge appearing in several maps counts only for the
// earliest, byte-identical to merging the maps one at a time with
// MergeNew. Nil maps are allowed and contribute nothing. batch may be nil
// (scratch is then allocated per call).
func (c *ShardedCov) MergeNewOrdered(maps []map[uint64]struct{}, batch *MergeBatch) []int {
	counts := make([]int, len(maps))
	if batch == nil {
		batch = &MergeBatch{}
	}
	for i := range batch.buckets {
		batch.buckets[i] = batch.buckets[i][:0]
	}
	for mi, m := range maps {
		for e := range m {
			si := shardOf(e)
			batch.buckets[si] = append(batch.buckets[si], covRef{edge: e, mi: int32(mi)})
		}
	}
	for si := range batch.buckets {
		refs := batch.buckets[si]
		if len(refs) == 0 {
			continue
		}
		s := &c.shards[si]
		s.mu.Lock()
		for _, r := range refs {
			if _, ok := s.m[r.edge]; !ok {
				s.m[r.edge] = struct{}{}
				counts[r.mi]++
			}
		}
		s.mu.Unlock()
	}
	return counts
}

// Len returns the number of distinct edges.
func (c *ShardedCov) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Snapshot copies the set into one plain map.
func (c *ShardedCov) Snapshot() map[uint64]struct{} {
	out := make(map[uint64]struct{}, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := range s.m {
			out[e] = struct{}{}
		}
		s.mu.Unlock()
	}
	return out
}

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
// concurrently over a shared Env, publishing into a sharded coverage map
// and a deduplicated, concurrency-guarded report set; width 1 runs the
// same campaign on a single worker.
//
// Determinism: each step's random stream is derived from (campaign seed,
// step index) — not from a shared sequential generator — and results are
// merged in step-index order at fixed batch boundaries. A campaign with a
// given Config therefore produces byte-identical Stats (modulo the Perf
// timing block), coverage, corpus, and reports at ANY worker count,
// regardless of completion order. Heavy work (kernel executions) runs in
// parallel; only planning and merging are serialized, and both are cheap.
type Pool struct {
	// Workers is the executor width. NewPool defaults it to
	// runtime.GOMAXPROCS(0).
	Workers int

	cfg    Config
	env    *Env
	target *syzlang.Target
	co     *campaignObs

	// Cov is the global coverage set, concurrently readable.
	Cov *ShardedCov
	// Reports collects deduplicated findings, concurrently readable.
	Reports *SafeReportSet

	mu      sync.Mutex // guards seeds, corpus, Stats, steps, repairs
	seeds   []*syzlang.Program
	corpus  []*syzlang.Program
	stats   Stats
	steps   uint64 // next global step index
	start   time.Time
	repairs map[string]*repair.Result

	// mergeBatch/mergeMaps are batch-merge scratch, reused under mu so the
	// per-batch coverage publication allocates nothing in steady state.
	mergeBatch MergeBatch
	mergeMaps  []map[uint64]struct{}
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
		Cov:     NewShardedCov(),
		Reports: NewSafeReportSet(),
		repairs: make(map[string]*repair.Result),
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

// Env exposes the shared execution environment (profile cache and kernel
// recycler included).
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
func (p *Pool) CoverageEdges() int { return p.Cov.Len() }

// fillPerf refreshes the scheduling-dependent Perf block. Caller holds
// p.mu (it reads p.start).
func (p *Pool) fillPerf(s *Stats) {
	s.Perf.Workers = p.Workers
	if !p.start.IsZero() {
		s.Perf.Elapsed = time.Since(p.start)
	}
	s.Perf.STICacheHits, s.Perf.STICacheMisses = p.env.STICacheCounters()
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

// job is one planned campaign step: the program to test and the step's
// private random stream (already advanced past program selection).
type job struct {
	idx  uint64
	prog *syzlang.Program
	rng  *rand.Rand
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

// jobResult is the outcome of one executed step, merged in index order.
type jobResult struct {
	idx     uint64
	prog    *syzlang.Program
	stiCov  map[uint64]struct{} // STI coverage (corpus admission signal)
	mtiCov  map[uint64]struct{} // union of MTI coverage
	reports []jobReport
	mtis    uint64
	hints   uint64
	vacuous uint64
	// migrations/deferred mirror Stats.Migrations/DeferredTasks for this
	// step's primary MTI loop (commutative sums, merged in index order).
	migrations uint64
	deferred   uint64
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
		prog = p.target.GenerateFocused(rng, p.cfg.ProgLen, mods[rng.Intn(len(mods))])
	}
	return job{idx: idx, prog: prog, rng: rng}
}

// runJob executes one campaign step: the STI profile (cached; §4.2),
// then scheduling hints and the pair's MTI runs (§4.3, §4.4), writing
// only to the job-local result. wid tags this worker's event stream
// (1..Workers).
func (p *Pool) runJob(jb job, wid int) jobResult {
	res := jobResult{idx: jb.idx, prog: jb.prog}
	defer func() {
		p.co.ev.Info(wid, "step", map[string]any{
			"step": jb.idx, "mtis": res.mtis, "hints": res.hints,
			"vacuous": res.vacuous, "reports": len(res.reports),
		})
	}()
	pStart := time.Now()
	sti := p.env.RunSTICached(jb.prog)
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

	res.mtiCov = make(map[uint64]struct{})
	pairs := pairOrder(len(jb.prog.Calls))
	if len(pairs) > p.cfg.MaxPairs {
		pairs = pairs[:p.cfg.MaxPairs]
	}
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if len(sti.CallEvents[i]) == 0 || len(sti.CallEvents[j]) == 0 {
			continue
		}
		hStart := time.Now()
		hs := hints.CalculateModel(sti.CallEvents[i], sti.CallEvents[j], p.cfg.Model)
		observe(p.co.stHints, hStart)
		res.hints += uint64(len(hs))
		orderHints(hs, p.cfg.HintOrder, jb.rng)
		if len(hs) > p.cfg.MaxHintsPerPair {
			hs = hs[:p.cfg.MaxHintsPerPair]
		}
		for rank, h := range hs {
			mStart := time.Now()
			mres := p.env.RunMTI(MTIOpts{Prog: jb.prog, I: i, J: j, Hint: h})
			observe(p.co.stMTI, mStart)
			res.mtis++
			res.migrations += uint64(mres.Migrations)
			res.deferred += uint64(mres.DeferredTasks)
			if !mres.Fired {
				res.vacuous++
			}
			// Record only edges the STI did not already cover: the STI
			// coverage of the same step merges first, so sti-duplicate
			// edges could never count as new — dropping them here shrinks
			// the merge work without changing any outcome.
			for e := range mres.Cov {
				if _, dup := res.stiCov[e]; !dup {
					res.mtiCov[e] = struct{}{}
				}
			}
			p.harvestJob(&res, jb.prog, i, j, h, rank, mres)
		}
	}
	return res
}

// harvestJob converts an MTI result into job-local reports, with Tests
// counted job-locally (rebased at merge).
func (p *Pool) harvestJob(res *jobResult, prog *syzlang.Program, i, j int, h *hints.Hint, rank int, mres *MTIResult) {
	if mres.Crash != nil {
		ooo := !mres.PrefixCrash
		if ooo {
			// Triage: re-run the same schedule without reordering
			// directives. If the crash still reproduces in order, it is a
			// plain interleaving race, not an OOO bug.
			tStart := time.Now()
			rerun := p.env.RunMTI(MTIOpts{Prog: prog, I: i, J: j, Hint: h, NoReorder: true})
			observe(p.co.stTriage, tStart)
			if rerun.Crash != nil && rerun.Crash.Title == mres.Crash.Title {
				ooo = false
			}
		}
		r := &report.Report{
			Title:   mres.Crash.Title,
			Oracle:  mres.Crash.Oracle,
			OOO:     ooo,
			Program: prog.String(),
		}
		var rr *repair.Result
		if r.OOO {
			r.Type = h.Type()
			r.Strategy = nonDefaultStrategy(p.cfg.Strategy)
			r.HypBarrier = fmt.Sprintf("before %s (%s)", modules.SiteName(h.Sched), h.Test)
			for _, s := range h.Reorder {
				r.ReorderedSites = append(r.ReorderedSites, modules.SiteName(s))
			}
			r.Pair = PairName(prog, i, j)
			r.HintRank = rank + 1
			r.Tests = int(res.mtis)
			// Cross-model probe, job-side so the runs parallelize with the
			// rest of the batch and Models is populated before the report is
			// ever published. The Get is a cheap filter against re-probing a
			// title an earlier batch already merged; duplicates racing within
			// one in-flight batch probe redundantly (same deterministic
			// result), and only the merge-ordered first instance survives.
			if p.Reports.Get(r.Title) == nil {
				r.Models = probeModels(p.env, p.cfg.Model, prog, i, j, h, func(pr *MTIResult) bool {
					return pr.Crash != nil && pr.Crash.Title == r.Title
				})
				// Fence repair under the same guard: racing in-batch
				// duplicates search redundantly but deterministically, and
				// only the merge-ordered first instance's result is kept.
				if rr = repairFinding(p.env, &p.cfg, p.co, prog, i, j, h, r.Title, false); rr != nil {
					r.SuggestedFix = rr.Lines()
				}
			}
		}
		res.reports = append(res.reports, jobReport{r: r, rebaseTests: r.OOO, repair: rr})
	}
	for _, s := range mres.Soft {
		r := &report.Report{
			Title: s, Oracle: "semantic", OOO: true,
			Type:       h.Type(),
			Strategy:   nonDefaultStrategy(p.cfg.Strategy),
			HypBarrier: fmt.Sprintf("before %s (%s)", modules.SiteName(h.Sched), h.Test),
			Pair:       PairName(prog, i, j),
			Program:    prog.String(),
			HintRank:   rank + 1,
			Tests:      int(res.mtis),
		}
		var rr *repair.Result
		if p.Reports.Get(r.Title) == nil {
			r.Models = probeModels(p.env, p.cfg.Model, prog, i, j, h, func(pr *MTIResult) bool {
				for _, ps := range pr.Soft {
					if ps == s {
						return true
					}
				}
				return false
			})
			if rr = repairFinding(p.env, &p.cfg, p.co, prog, i, j, h, r.Title, true); rr != nil {
				r.SuggestedFix = rr.Lines()
			}
		}
		res.reports = append(res.reports, jobReport{r: r, rebaseTests: true, repair: rr})
	}
}

// merge folds one step result into the campaign state. Called in strict
// step-index order; that ordering is what makes coverage novelty, corpus
// admission, report deduplication, and Tests rebasing deterministic.
// The step's coverage maps were already merged by the caller's batched
// MergeNewOrdered; stiNew is the STI map's novelty count from that merge
// (the corpus-admission signal). Caller holds p.mu.
func (p *Pool) merge(res *jobResult, stiNew int, found *[]*report.Report) {
	base := p.stats.MTIs
	p.stats.Steps++
	p.stats.STIs++
	p.stats.MTIs += res.mtis
	p.stats.Hints += res.hints
	p.stats.Vacuous += res.vacuous
	p.stats.Migrations += res.migrations
	p.stats.DeferredTasks += res.deferred
	p.co.steps.Inc()
	p.co.stis.Inc()
	p.co.mtis.Add(res.mtis)
	p.co.hintsTotal.Add(res.hints)
	p.co.vacuous.Add(res.vacuous)
	if stiNew > 0 {
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
}

// Run executes `steps` campaign steps across the pool's workers and
// returns the new reports in deterministic discovery order.
func (p *Pool) Run(steps int) []*report.Report {
	return p.run(steps, time.Time{}, "")
}

// RunFor executes whole batches until the wall-clock budget is spent and
// returns the new reports. The step sequence is the same deterministic
// sequence Run walks; only where it stops depends on the clock.
func (p *Pool) RunFor(budget time.Duration) []*report.Report {
	return p.run(-1, time.Now().Add(budget), "")
}

// RunUntil executes whole batches until one publishes a report with the
// given title, or maxSteps steps have run, and returns that report (nil
// if it never appeared). A title already known returns at once. Because
// it stops only at batch boundaries, the campaign it walks is a prefix of
// Run(maxSteps) and the report it returns is the one Run(maxSteps)
// publishes; Stats include the rest of the finding batch.
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
func (p *Pool) run(steps int, deadline time.Time, until string) []*report.Report {
	if steps == 0 {
		return nil
	}
	p.mu.Lock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.mu.Unlock()

	jobs := make(chan job, batchSize)
	results := make(chan jobResult, batchSize)
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for jb := range jobs {
				results <- p.runJob(jb, wid)
			}
		}(w + 1)
	}

	var found []*report.Report
	remaining := steps
	for remaining != 0 {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		n := batchSize
		if remaining > 0 && remaining < n {
			n = remaining
		}
		// Plan the batch against the corpus as of this boundary.
		p.mu.Lock()
		batch := make([]job, n)
		for bi := 0; bi < n; bi++ {
			gStart := time.Now()
			batch[bi] = p.planStep(p.steps)
			observe(p.co.stGenerate, gStart)
			p.steps++
		}
		p.mu.Unlock()
		// Execute in parallel; buffer capacities fit a whole batch, so
		// dispatch can never deadlock against result publication.
		for _, jb := range batch {
			jobs <- jb
		}
		pending := make(map[uint64]*jobResult, n)
		for done := 0; done < n; done++ {
			r := <-results
			pending[r.idx] = &r
		}
		// Merge in step-index order. Coverage publishes per batch: the
		// interleaved [sti_0, mti_0, sti_1, mti_1, ...] map order makes the
		// shard-grouped merge's novelty attribution byte-identical to the
		// former per-step MergeNew sequence, with one lock round per shard
		// instead of one per edge.
		p.mu.Lock()
		mStart := time.Now()
		p.mergeMaps = p.mergeMaps[:0]
		for _, jb := range batch {
			r := pending[jb.idx]
			p.mergeMaps = append(p.mergeMaps, r.stiCov, r.mtiCov)
		}
		counts := p.Cov.MergeNewOrdered(p.mergeMaps, &p.mergeBatch)
		for bi, jb := range batch {
			p.merge(pending[jb.idx], counts[2*bi], &found)
		}
		observe(p.co.stMerge, mStart)
		p.fillPerf(&p.stats)
		p.mu.Unlock()
		p.co.covEdges.Set(float64(p.Cov.Len()))
		if remaining > 0 {
			remaining -= n
		}
		if until != "" && p.Reports.Get(until) != nil {
			break
		}
	}
	close(jobs)
	wg.Wait()
	return found
}

// orderHints applies the HintOrder configuration knob to a freshly
// calculated hint list.
func orderHints(hs []*hints.Hint, order string, rng *rand.Rand) {
	switch order {
	case "", "heuristic":
		// Calculate already sorted by the search heuristic.
	case "reverse":
		for a, b := 0, len(hs)-1; a < b; a, b = a+1, b-1 {
			hs[a], hs[b] = hs[b], hs[a]
		}
	case "random":
		rng.Shuffle(len(hs), func(a, b int) { hs[a], hs[b] = hs[b], hs[a] })
	}
}

// pairOrder enumerates call pairs (i, j), i < j, adjacent pairs first —
// concurrency bugs overwhelmingly involve calls operating on the same
// just-created resource.
func pairOrder(n int) [][2]int {
	var pairs [][2]int
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			pairs = append(pairs, [2]int{i, i + d})
		}
	}
	return pairs
}
