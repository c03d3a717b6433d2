package core

import (
	"fmt"
	"sort"
	"time"

	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/repair"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// The campaign's fixed search bounds (§4.3): a generated program has
// ProgLen calls, a step tests its first maxPairs call pairs, and each pair
// runs its maxHintsPerPair top-ranked scheduling hints, most-reordered
// first. The syzkaller baseline generates programs of the same length.
const (
	ProgLen         = 4
	maxPairs        = 8
	maxHintsPerPair = 8
)

// Config parameterizes a fuzzing campaign.
type Config struct {
	// Modules to load (empty = all).
	Modules []string
	// Bugs holds the active bug switches.
	Bugs modules.BugSet
	// Seed makes the campaign reproducible.
	Seed int64
	// UseSeeds feeds the modules' seed corpus before random generation
	// (§6.1: "we use seeds provided by Syzkaller").
	UseSeeds bool
	// InterruptOnSwitch forwards to Env (the interrupt-injection
	// ablation).
	InterruptOnSwitch bool
	// Model is the memory model the campaign emulates (nil = LKMM).
	// Hints, MTI directives, and triage all run under it; new OOO
	// findings are additionally probed under every other registered
	// model to fill the report's "reorders under" line.
	Model *memmodel.Table
	// Strategy names the engine strategy MTI runs execute under; see
	// engine.ParseStrategy. Every accepted label ("", "ooo", and the
	// retired "migration") selects the migration-aware OOO executor.
	//
	// Deprecated: OOO is the only campaign strategy. The field remains
	// only for callers that still pass the "migration" label.
	Strategy string
	// Repair, when true, runs the automatic fence-repair search
	// (internal/repair) on every newly-discovered OOO finding and
	// attaches the ranked patch suggestions to the report's SuggestedFix
	// block; structured results are retrievable via RepairResult. The
	// search re-runs the reproducer through the engine but touches
	// neither the deterministic Stats counters nor coverage, so campaign
	// findings and goldens are unaffected.
	Repair bool
	// Obs, when non-nil, is the metrics registry the campaign and its
	// engine publish into; nil gives the campaign a fresh private
	// registry (retrieve it with Obs()). Sharing one registry across
	// campaigns is legal but makes the engine's kernel/cache counters
	// cumulative across them. Purely observational: it never affects the
	// deterministic counters or findings.
	Obs *obs.Registry
	// Events, when non-nil, receives the campaign's structured JSONL
	// event stream (one "step" event per completed step, worker-tagged).
	// Nil disables event logging at zero cost.
	Events *obs.EventLog
}

// normalize resolves the campaign's memory-model default.
func (c *Config) normalize() {
	if c.Model == nil {
		c.Model = memmodel.LKMM
	}
}

// newEnvFromConfig builds the campaign's execution environment,
// forwarding the config's kernel knobs and registry.
func newEnvFromConfig(cfg Config) *Env {
	env := NewEnvObs(cfg.Modules, cfg.Bugs, cfg.Obs)
	env.InterruptOnSwitch = cfg.InterruptOnSwitch
	env.Model = cfg.Model
	st, err := engine.ParseStrategy(cfg.Strategy)
	if err != nil {
		// Mirrors modules.Target's unknown-module contract: a bad label is
		// a caller bug, and CLIs validate the flag before building a
		// campaign.
		panic(err)
	}
	env.Strategy = st
	return env
}

// Stats counts campaign work, mirroring the paper's execution metrics. All
// fields except Perf are deterministic functions of the campaign Config —
// identical across worker counts and runs.
//
// A step replayed from the pool's step memo counts as if it had run:
// MTIs, Hints, Vacuous and Migrations add the recorded step's values, so
// the counters and Report.Tests match a campaign that executed every step.
type Stats struct {
	Steps     uint64 // campaign iterations
	STIs      uint64 // single-threaded executions
	MTIs      uint64 // multi-threaded (hypothetical barrier) test executions
	Hints     uint64 // scheduling hints computed
	Vacuous   uint64 // MTIs whose scheduling point never fired
	NewCov    uint64 // runs that grew coverage
	CorpusLen int    // programs in the coverage corpus

	// Migrations counts real cross-CPU task moves the OOO strategy
	// performed at the scheduling points of migration-sensitive hints.
	// Like the counters above it sums only the primary MTI loop — triage
	// re-runs and cross-model probes are observation-only — so it is
	// identical across worker counts.
	Migrations uint64

	// Perf holds throughput and reuse metrics. Unlike the counters above
	// these depend on wall-clock time and goroutine scheduling, so they
	// vary run to run; determinism comparisons must zero this block.
	Perf PerfStats
}

// PerfStats are the scheduling-dependent campaign metrics (§6.3.2
// throughput and the executor's state-reuse rates).
type PerfStats struct {
	Workers         int           // campaign executor width (the pool's worker count)
	Elapsed         time.Duration // wall-clock time covered by the counters below
	TestsPerSec     float64       // campaign steps per second
	ExecsPerSec     float64       // kernel executions per second (all workers)
	STICacheHits    uint64        // steps replayed from the step memo (no execution)
	STICacheMisses  uint64        // steps executed (STI profile, hints, MTIs)
	KernelsRecycled uint64        // kernel acquisitions reusing a pooled instance (Reset)
	KernelsBuilt    uint64        // kernel acquisitions that constructed a fresh instance
}

// STICacheHitRate returns the fraction of steps replayed from the step
// memo (0 when no step ran).
func (p PerfStats) STICacheHitRate() float64 {
	total := p.STICacheHits + p.STICacheMisses
	if total == 0 {
		return 0
	}
	return float64(p.STICacheHits) / float64(total)
}

// RecycleRate returns the fraction of kernel executions that reused a
// pooled kernel instead of constructing one.
func (p PerfStats) RecycleRate() float64 {
	total := p.KernelsRecycled + p.KernelsBuilt
	if total == 0 {
		return 0
	}
	return float64(p.KernelsRecycled) / float64(total)
}

// MetricsLine formats the campaign metrics as a single log line
// (cmd/ozz -v prints it at the end of a campaign).
func (s Stats) MetricsLine() string {
	perWorker := s.Perf.ExecsPerSec
	if s.Perf.Workers > 1 {
		perWorker /= float64(s.Perf.Workers)
	}
	return fmt.Sprintf(
		"metrics: %.1f tests/s, %.1f exec/s/worker (%d workers), sti-cache %.0f%% hit, kernel-pool %.0f%% recycled",
		s.Perf.TestsPerSec, perWorker, s.Perf.Workers,
		100*s.Perf.STICacheHitRate(), 100*s.Perf.RecycleRate())
}

// repairFinding runs the fence-repair search for a newly-discovered OOO
// finding (pool workers call it under the title-is-new guard).
// It returns nil when Config.Repair is off. events is the step's STI
// profile of p, so the extra cost is the search itself.
func repairFinding(env *Env, cfg *Config, co *campaignObs, p *syzlang.Program, events [][]trace.Event, i, j int, h *hints.Hint, title string, soft bool) *repair.Result {
	if !cfg.Repair {
		return nil
	}
	start := time.Now()
	defer observe(co.stRepair, start)
	return repair.InVivo(repair.InVivoInput{
		Prog:   p,
		I:      i,
		J:      j,
		Hint:   h,
		Events: events,
		Title:  title,
		Soft:   soft,
	}, env, repair.Options{Model: cfg.Model, Metrics: co.repair})
}

// probeModels is the cross-model probe: it re-runs a newly-found OOO
// bug's MTI under every OTHER registered memory model and returns the
// sorted names of the models under which the finding reproduces — the
// report's "reorders under" line. The campaign's own model is included
// without a re-run (the finding just reproduced under it). Probe runs
// are observation only: they touch neither the deterministic Stats
// counters nor the coverage corpus, so campaign goldens are unaffected.
// Safe to call concurrently (pool workers probe job-side).
func probeModels(env *Env, base *memmodel.Table, p *syzlang.Program, i, j int, h *hints.Hint, reproduced func(*MTIResult) bool) []string {
	models := []string{base.Name()}
	for _, mm := range memmodel.All() {
		if mm == base {
			continue
		}
		if reproduced(env.RunMTIUnder(MTIOpts{Prog: p, I: i, J: j, Hint: h}, mm)) {
			models = append(models, mm.Name())
		}
	}
	sort.Strings(models)
	return models
}
