package core

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ozz/internal/obs"
)

// totalsCampaign is the campaign the run-metric tests drive: seeds,
// every bug switch and the repair search, so triage re-runs, cross-model
// probes, migrations and repair runs all publish.
func totalsCampaign(reg *obs.Registry, ev *obs.EventLog) Config {
	return Config{Seed: 7, UseSeeds: true, Bugs: allBugSwitches(), Repair: true, Obs: reg, Events: ev}
}

// wantTotals are the run metric totals of 256 steps of totalsCampaign,
// at width 1 and 2, as published when every run wrote its metrics into
// the registry on the spot.
var wantTotals = map[string]uint64{
	"ozz_campaign_hints_total":                                   626,
	"ozz_campaign_mtis_total":                                    626,
	"ozz_campaign_new_coverage_runs_total":                       52,
	"ozz_campaign_steps_total":                                   256,
	"ozz_campaign_stis_total":                                    256,
	"ozz_campaign_vacuous_mtis_total":                            52,
	"ozz_engine_crashes_total,strategy=interleave":               0,
	"ozz_engine_crashes_total,strategy=kcsan":                    0,
	"ozz_engine_crashes_total,strategy=ooo":                      159,
	"ozz_engine_crashes_total,strategy=sequential":               0,
	"ozz_engine_deadlocks_total,strategy=interleave":             0,
	"ozz_engine_deadlocks_total,strategy=kcsan":                  0,
	"ozz_engine_deadlocks_total,strategy=ooo":                    0,
	"ozz_engine_deadlocks_total,strategy=sequential":             0,
	"ozz_engine_prefix_crashes_total":                            0,
	"ozz_engine_run_duration_seconds_count,strategy=interleave":  0,
	"ozz_engine_run_duration_seconds_count,strategy=kcsan":       0,
	"ozz_engine_run_duration_seconds_count,strategy=ooo":         1438,
	"ozz_engine_run_duration_seconds_count,strategy=sequential":  0,
	"ozz_engine_runs_total,shape=pair,strategy=interleave":       0,
	"ozz_engine_runs_total,shape=pair,strategy=kcsan":            0,
	"ozz_engine_runs_total,shape=pair,strategy=ooo":              1243,
	"ozz_engine_runs_total,shape=pair,strategy=sequential":       0,
	"ozz_engine_runs_total,shape=sequential,strategy=interleave": 0,
	"ozz_engine_runs_total,shape=sequential,strategy=kcsan":      0,
	"ozz_engine_runs_total,shape=sequential,strategy=ooo":        195,
	"ozz_engine_runs_total,shape=sequential,strategy=sequential": 0,
	"ozz_kernel_acquire_duration_seconds_count":                  1438,
	"ozz_kernel_acquires_total,source=any":                       1438,
	"ozz_model_divergences_total":                                28,
	"ozz_model_runs_total,model=armv8":                           114,
	"ozz_model_runs_total,model=lkmm":                            1276,
	"ozz_model_runs_total,model=tso":                             48,
	"ozz_mti_fired_total":                                        1193,
	"ozz_mti_pairs_total":                                        1243,
	"ozz_mti_reorders_total":                                     754,
	"ozz_oemu_committed_stores_total":                            9804,
	"ozz_oemu_delayed_stores_total":                              589,
	"ozz_oemu_flushes_total,cause=interrupt":                     0,
	"ozz_oemu_flushes_total,cause=release":                       35,
	"ozz_oemu_flushes_total,cause=smp_mb":                        0,
	"ozz_oemu_flushes_total,cause=smp_wmb":                       36,
	"ozz_oemu_flushes_total,cause=syscall_exit":                  158,
	"ozz_oemu_forwarded_loads_total":                             17,
	"ozz_oemu_history_ring_acquires_total,source=any":            1305,
	"ozz_oemu_load_window_advances_total":                        3021,
	"ozz_oemu_thread_acquires_total,source=any":                  3924,
	"ozz_oemu_versioned_loads_total":                             165,
	"ozz_repair_candidates_enumerated_total":                     766,
	"ozz_repair_candidates_rejected_total,reason=legality":       680,
	"ozz_repair_candidates_validated_total":                      86,
	"ozz_repair_searches_total":                                  48,
	"ozz_repair_suggestions_total":                               23,
	"ozz_reports_ooo_total":                                      30,
	"ozz_reports_total,outcome=duplicate":                        156,
	"ozz_reports_total,outcome=new":                              30,
	"ozz_sched_migrations_total":                                 39,
	"ozz_sched_preemptions_total":                                1217,
	"ozz_sched_yields_total":                                     37197,
	"ozz_stage_duration_seconds_count,stage=generate":            256,
	"ozz_stage_duration_seconds_count,stage=hints":               377,
	"ozz_stage_duration_seconds_count,stage=merge":               8,
	"ozz_stage_duration_seconds_count,stage=mti":                 451,
	"ozz_stage_duration_seconds_count,stage=profile":             195,
	"ozz_stage_duration_seconds_count,stage=repair":              48,
	"ozz_stage_duration_seconds_count,stage=triage":              114,
	"ozz_sti_cache_lookups_total,outcome=hit":                    61,
	"ozz_sti_cache_lookups_total,outcome=miss":                   195,
}

// TestRunMetricTotals: workers tally their runs' metrics and the pool
// flushes the tallies at batch barriers and when Run returns, so after
// Run every run counter and histogram count equals what publishing each
// run on the spot gave (wantTotals), at width 1 and 2.
func TestRunMetricTotals(t *testing.T) {
	for _, width := range []int{1, 2} {
		reg := obs.NewRegistry()
		NewPool(totalsCampaign(reg, nil), width).Run(256)
		got := runTotals(t, reg)
		for k, want := range wantTotals {
			if got[k] != want {
				t.Errorf("width %d: %s = %d, want %d", width, k, got[k], want)
			}
		}
		for k, v := range got {
			if _, ok := wantTotals[k]; !ok {
				t.Errorf("width %d: unexpected series %s = %d", width, k, v)
			}
		}
	}
}

// batchProbe is an event-log writer that, at the first step event of the
// campaign's second batch, reads ozz_mti_pairs_total from reg: workers
// run that step after the first batch's barrier.
type batchProbe struct {
	reg   *obs.Registry
	once  sync.Once
	pairs uint64
	seen  bool
}

func (b *batchProbe) Write(p []byte) (int, error) {
	var e obs.Event
	if err := json.Unmarshal(p, &e); err == nil && e.Kind == "step" && e.Fields["step"].(float64) >= batchSize {
		b.once.Do(func() {
			b.pairs = b.reg.Counter("ozz_mti_pairs_total", "").Value()
			b.seen = true
		})
	}
	return len(p), nil
}

// TestRunMetricsFlushedPerBatch: the pool flushes its workers' run
// metrics at every batch barrier, so a registry read while the second
// batch runs shows exactly the first batch's MTI pairs — what a scrape
// during a long campaign sees.
func TestRunMetricsFlushedPerBatch(t *testing.T) {
	first := obs.NewRegistry()
	NewPool(totalsCampaign(first, nil), 2).Run(batchSize)
	want := first.Counter("ozz_mti_pairs_total", "").Value()
	if want == 0 {
		t.Fatal("the first batch ran no MTI: the test checks nothing")
	}
	reg := obs.NewRegistry()
	probe := &batchProbe{reg: reg}
	NewPool(totalsCampaign(reg, obs.NewEventLog(probe, obs.LevelInfo)), 2).Run(3 * batchSize)
	if !probe.seen {
		t.Fatal("no step event from the second batch")
	}
	if probe.pairs != want {
		t.Fatalf("ozz_mti_pairs_total during the second batch = %d, want the first batch's %d", probe.pairs, want)
	}
}

// runTotals returns the deterministic totals of reg's exposition: every
// counter sample and every histogram's _count, by series. Sums and
// buckets hold wall-clock timings and gauges campaign state, so neither
// is a total. A recycled/built split depends on which kernels the
// process had idle, so the two children of a "source" label are summed
// into source="any".
func runTotals(t *testing.T, reg *obs.Registry) map[string]uint64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "counter" {
			counters[f[2]] = true
		}
	}
	out := map[string]uint64{}
	for _, s := range samples {
		name := s.Name
		switch {
		case counters[name]:
		case strings.HasSuffix(name, "_count") && !counters[strings.TrimSuffix(name, "_count")]:
		default:
			continue
		}
		key := name
		for _, l := range s.Labels {
			v := l.Value
			if l.Key == "source" {
				v = "any"
			}
			key += "," + l.Key + "=" + v
		}
		out[key] += uint64(s.Value)
	}
	return out
}
