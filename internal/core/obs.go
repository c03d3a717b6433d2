package core

import (
	"time"

	"ozz/internal/obs"
	"ozz/internal/repair"
)

// stageNames are the fuzzing pipeline stages timed by
// ozz_stage_duration_seconds, in label order: program selection,
// STI profiling, hint computation (Algorithm 1/2), MTI pair execution,
// the OOO triage re-run, the pool's index-ordered batch merge, and the
// fence-repair search on new OOO findings. A step replayed from the step
// memo runs no stage, so the profile through repair histograms time
// executed steps only.
var stageNames = []string{"generate", "profile", "hints", "mti", "triage", "merge", "repair"}

// campaignObs is the campaign layer's handle bundle into an obs.Registry:
// workflow counters mirroring the deterministic Stats block, campaign
// gauges, report dedup outcomes, and per-stage latency histograms. The
// registry mirrors Stats — it never replaces it: Stats counters stay the
// deterministic source of truth (conformance goldens compare them), while
// the registry adds wall-clock timings and process-wide visibility.
// Incrementing these never influences execution.
type campaignObs struct {
	ev *obs.EventLog

	steps, stis, mtis, hintsTotal, vacuous, newCov *obs.Counter
	covEdges, corpusLen, workers                   *obs.Gauge
	reportsNew, reportsDup, reportsOOO             *obs.Counter
	modelDivergences                               *obs.Counter
	memoHits, memoMisses                           *obs.Counter

	// stage histogram children, indexed like stageNames.
	stGenerate, stProfile, stHints, stMTI, stTriage, stMerge, stRepair *obs.Histogram

	// repair holds the ozz_repair_* counter bundle the fence-repair
	// search increments when Config.Repair is on.
	repair *repair.Metrics
}

// newCampaignObs registers the campaign metric families on reg (creating
// every stage child up front so a scrape is complete before any step) and
// attaches the optional event log.
func newCampaignObs(reg *obs.Registry, ev *obs.EventLog) *campaignObs {
	c := &campaignObs{ev: ev}
	c.steps = reg.Counter("ozz_campaign_steps_total",
		"Campaign steps completed (one STI plus its hint-driven MTIs).")
	c.stis = reg.Counter("ozz_campaign_stis_total",
		"Single-threaded inputs tested, one per step (replayed steps included).")
	c.mtis = reg.Counter("ozz_campaign_mtis_total",
		"Multi-threaded (hypothetical barrier) tests, replayed steps' MTIs included.")
	c.hintsTotal = reg.Counter("ozz_campaign_hints_total",
		"Scheduling hints computed by Algorithm 1/2 (paper §4.3).")
	c.vacuous = reg.Counter("ozz_campaign_vacuous_mtis_total",
		"MTIs whose scheduling point never fired (wasted pair runs).")
	c.newCov = reg.Counter("ozz_campaign_new_coverage_runs_total",
		"Steps whose STI grew the global coverage map (corpus admissions).")
	c.covEdges = reg.Gauge("ozz_campaign_coverage_edges",
		"Distinct KCov edges covered so far.")
	c.corpusLen = reg.Gauge("ozz_campaign_corpus_programs",
		"Programs in the coverage corpus.")
	c.workers = reg.Gauge("ozz_campaign_workers",
		"Campaign executor width (the pool's worker count).")
	lookups := reg.CounterVec("ozz_sti_cache_lookups_total",
		"Step-memo lookups, one per campaign step: hit for a step replayed from the memo, miss for an executed step.",
		"outcome")
	c.memoHits = lookups.With("hit")
	c.memoMisses = lookups.With("miss")

	outcomes := reg.CounterVec("ozz_reports_total",
		"Crash/soft reports by dedup outcome at the campaign report set.", "outcome")
	c.reportsNew = outcomes.With("new")
	c.reportsDup = outcomes.With("duplicate")
	c.reportsOOO = reg.Counter("ozz_reports_ooo_total",
		"New reports classified as genuine out-of-order bugs by the triage re-run.")
	c.modelDivergences = reg.Counter("ozz_model_divergences_total",
		"New OOO findings whose cross-model probe reproduced them under only a strict subset of the registered memory models.")

	stages := reg.HistogramVec("ozz_stage_duration_seconds",
		"Wall-clock duration of one pipeline stage execution, seconds.",
		obs.DurationBuckets(), "stage")
	children := make([]*obs.Histogram, len(stageNames))
	for i, s := range stageNames {
		children[i] = stages.With(s)
	}
	c.stGenerate, c.stProfile, c.stHints, c.stMTI, c.stTriage, c.stMerge, c.stRepair =
		children[0], children[1], children[2], children[3], children[4], children[5], children[6]
	c.repair = repair.RegisterMetrics(reg)
	return c
}

// observe records one stage execution's duration.
func observe(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// reportOutcome tallies one report-set insertion attempt: added says
// whether the report was new, ooo whether a new report is a confirmed OOO
// bug.
func (c *campaignObs) reportOutcome(added, ooo bool) {
	if !added {
		c.reportsDup.Inc()
		return
	}
	c.reportsNew.Inc()
	if ooo {
		c.reportsOOO.Inc()
	}
}

// stepEvent emits the "step" event of a finished step on worker wid's
// stream. Without an event log it builds nothing.
func (c *campaignObs) stepEvent(wid int, res *jobResult) {
	if c.ev == nil {
		return
	}
	c.ev.Info(wid, "step", map[string]any{
		"step": res.idx, "mtis": res.mtis, "hints": res.hints,
		"vacuous": res.vacuous, "reports": len(res.reports),
	})
}
