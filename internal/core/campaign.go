package core

import (
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

// Stats counts campaign work, mirroring the paper's execution metrics. Every
// field is a deterministic function of the campaign Config — identical
// across worker counts and runs. Runtime rates (tests/s, step-memo hits,
// kernel recycling) live in the metrics registry (Config.Obs).
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
