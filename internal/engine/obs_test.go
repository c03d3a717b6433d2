package engine

import (
	"strings"
	"testing"

	"ozz/internal/kernel"
	"ozz/internal/obs"
)

// renamed is the OOO strategy under a name no engine pre-registers.
type renamed struct{ OOO }

func (renamed) Name() string { return "out-of-tree" }

// TestUnregisteredStrategyPublishes: a strategy outside StrategyNames has
// no pre-resolved handles, yet its runs, durations and crashes still
// reach the exposition under its own label.
func TestUnregisteredStrategyPublishes(t *testing.T) {
	e := NewObs(nil)
	m := newSynth(map[string]impl{
		"ok": func(*kernel.Task, []uint64) uint64 { return 0 },
		"boom": func(*kernel.Task, []uint64) uint64 {
			panic(&kernel.Crash{Title: "kernel BUG in boom", Oracle: "assert"})
		},
	})
	cfg := Config{Instrumented: true}
	e.run(cfg, renamed{}, Request{Prog: m.prog("ok")}, m.build)
	e.run(cfg, renamed{}, Request{Prog: m.prog("boom")}, m.build)

	var sb strings.Builder
	if err := e.Obs().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		if s.Get("strategy") == "out-of-tree" {
			got[s.Name+"/"+s.Get("shape")] = s.Value
		}
	}
	for series, want := range map[string]float64{
		"ozz_engine_runs_total/sequential":       2,
		"ozz_engine_runs_total/pair":             0,
		"ozz_engine_run_duration_seconds_count/": 2,
		"ozz_engine_crashes_total/":              1,
		"ozz_engine_deadlocks_total/":            0,
	} {
		if v, ok := got[series]; !ok {
			t.Errorf("series %s missing from the exposition", series)
		} else if v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
}
