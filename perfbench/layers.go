package main

import (
	"flag"
	"testing"
	"time"

	"ozz/internal/bench"
)

// microLayer maps each micro driver of bench.Micros to its per-layer
// metric prefix.
var microLayer = map[string]string{
	"oemu_step":           "oemu.step",
	"oemu_commit_tracked": "oemu.commit_tracked",
	"oemu_delay_flush":    "oemu.delay_flush",
	"model_dispatch":      "memmodel.dispatch",
	"sched_yield":         "sched.yield",
	"sched_switch":        "sched.switch",
	"combinator_dispatch": "sched.combinator_dispatch",
	"kmem_check":          "kmem.check",
}

// spanNames are the span kinds whose summed self time a traced run
// reports.
var spanNames = []string{"pass", "setup", "hunt", "campaign", "repair_op", "run", "litmus", "micro"}

type microResult struct {
	name       string
	ns, allocs float64
}

// setBenchTime sets the benchtime testing.Benchmark gives each driver.
func setBenchTime(d time.Duration) {
	testing.Init()
	if f := flag.Lookup("test.benchtime"); f != nil {
		_ = f.Value.Set(d.String()) // a valid duration always parses
	}
}

// runMicros runs every micro driver for about d each, one span per driver.
func runMicros(tr *tracer, d time.Duration) []microResult {
	setBenchTime(d)
	tr.probe = nil // the drivers publish nothing into a registry
	var out []microResult
	for _, m := range bench.Micros() {
		s := tr.begin("micro", map[string]any{"driver": m.Name})
		br := testing.Benchmark(m.Fn)
		tr.end(s)
		if br.N == 0 {
			continue
		}
		out = append(out, microResult{
			name:   m.Name,
			ns:     float64(br.T.Nanoseconds()) / float64(br.N),
			allocs: float64(br.MemAllocs) / float64(br.N),
		})
	}
	return out
}

// layerMetrics derives the per-layer metrics of a traced pass from its
// registry values, its spans, and the micro drivers. untracedCPU is the
// untraced pass's CPU time, for the tracing overhead.
func layerMetrics(p *pass, tr *tracer, micros []microResult, untracedCPU float64) map[string]metric {
	d := p.delta
	ms := map[string]metric{}
	put := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	parallel := 0.0
	for _, s := range stageNames {
		put("core.stage."+s+"_s", d["stage."+s], "s")
		if s != "generate" && s != "merge" {
			parallel += d["stage."+s]
		}
	}
	// generate and merge run on the coordinator; the other stages run on
	// the pool's workers in parallel.
	put("core.executor_self_s", p.runS-d["stage.generate"]-d["stage.merge"]-parallel/float64(p.workers), "s")
	put("core.mtis_per_step", ratio(d["mtis"], d["steps"]), "count/step")
	put("core.vacuous_ratio", ratio(d["vacuous"], d["mtis"]), "ratio")
	put("core.reports_dup_ratio", ratio(d["reports.duplicate"], d["reports.duplicate"]+d["reports.new"]), "ratio")
	put("hints.per_step", ratio(d["hints"], d["steps"]), "count/step")

	put("engine.runs", d["runs"], "count")
	put("engine.run_mean_s", ratio(d["run.sum"], d["run.count"]), "s")
	put("engine.kernel_recycle_ratio", ratio(d["kernel.recycled"], d["kernel.recycled"]+d["kernel.built"]), "ratio")
	put("engine.kernel_acquire_s", d["acquire.sum"], "s")
	put("engine.sti_cache_hit_ratio", ratio(d["sti.hit"], d["sti.hit"]+d["sti.miss"]), "ratio")
	put("engine.plan_cache_hit_ratio", ratio(d["plan.hit"], d["plan.hit"]+d["plan.miss"]), "ratio")
	put("engine.mti_fired_ratio", ratio(d["fired"], d["pairs"]), "ratio")
	// Runs outside the primary loop: triage re-runs, cross-model probes,
	// and repair closure runs.
	put("engine.probe_runs", d["runs"]-d["sti.miss"]-d["mtis"], "count")

	put("oemu.delayed_per_mti", ratio(d["delayed"], d["pairs"]), "count/mti")
	put("oemu.versioned_per_mti", ratio(d["versioned"], d["pairs"]), "count/mti")
	put("oemu.flushes_per_mti", ratio(d["flushes"], d["pairs"]), "count/mti")
	put("sched.yields_per_run", ratio(d["yields"], d["runs"]), "count/run")
	put("sched.preemptions_per_mti", ratio(d["preemptions"], d["pairs"]), "count/mti")
	put("sched.migrations", d["migrations"], "count")

	for _, m := range micros {
		if prefix, ok := microLayer[m.name]; ok {
			put(prefix+"_ns", m.ns, "ns/op")
			put(prefix+"_allocs", m.allocs, "allocs/op")
		}
	}

	put("repair.search_s", d["stage.repair"]+p.litmusS, "s")
	put("repair.candidates_per_search", ratio(d["enumerated"], d["searches"]), "count/search")
	put("repair.validated_ratio", ratio(d["validated"], d["enumerated"]), "ratio")
	put("repair.rejected_illegal", d["rejected.legality"], "count")
	put("repair.rejected_unclosed", d["rejected.closure"], "count")
	put("repair.rejected_nonminimal", d["rejected.minimality"], "count")

	self := tr.selfTimes()
	for _, n := range spanNames {
		put("span."+n+".self_s", self[n], "s")
	}
	put("trace.overhead_s", p.cpu-untracedCPU, "s")
	put("trace.overhead_ratio", ratio(p.cpu-untracedCPU, untracedCPU), "ratio")
	return ms
}
