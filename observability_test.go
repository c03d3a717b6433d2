package ozz

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ozz/internal/core"
	"ozz/internal/dist"
	"ozz/internal/obs"
)

// runInstrumentedCampaign runs a short 4-worker pool campaign with a fresh
// registry and event log attached, returning both.
func runInstrumentedCampaign(t *testing.T, steps int) (*obs.Registry, *bytes.Buffer) {
	t.Helper()
	reg := obs.NewRegistry()
	var events bytes.Buffer
	ev := obs.NewEventLog(&events, obs.LevelInfo)
	p := core.NewPool(core.Config{Seed: 1, UseSeeds: true, Obs: reg, Events: ev}, 4)
	p.Run(steps)
	if err := ev.Err(); err != nil {
		t.Fatalf("event log error: %v", err)
	}
	return reg, &events
}

// TestObservabilityRegistryCoverage is the acceptance check: a campaign
// registry exposes at least 20 distinct ozz_* metric families, the
// exposition carries series for all four strategies, and the headline
// counters are live.
func TestObservabilityRegistryCoverage(t *testing.T) {
	reg, _ := runInstrumentedCampaign(t, 16)

	var ozzNames []string
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, "ozz_") {
			ozzNames = append(ozzNames, n)
		}
	}
	if len(ozzNames) < 20 {
		t.Fatalf("registry exposes %d ozz_* families, want >= 20: %v", len(ozzNames), ozzNames)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string][]obs.Sample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}

	// All four strategies' series are present (pre-registered at zero).
	strategies := map[string]bool{}
	for _, s := range byName["ozz_engine_runs_total"] {
		strategies[s.Get("strategy")] = true
	}
	for _, want := range []string{"ooo", "sequential", "interleave", "kcsan"} {
		if !strategies[want] {
			t.Errorf("exposition missing ozz_engine_runs_total series for strategy %q", want)
		}
	}

	// Headline counters are live after a campaign.
	value := func(name string) float64 {
		ss := byName[name]
		if len(ss) != 1 {
			t.Fatalf("%s: got %d samples, want 1", name, len(ss))
		}
		return ss[0].Value
	}
	if got := value("ozz_campaign_steps_total"); got != 16 {
		t.Errorf("ozz_campaign_steps_total = %v, want 16", got)
	}
	if got := value("ozz_mti_pairs_total"); got <= 0 {
		t.Errorf("ozz_mti_pairs_total = %v, want > 0", got)
	}
	if got := value("ozz_campaign_workers"); got != 4 {
		t.Errorf("ozz_campaign_workers = %v, want 4", got)
	}
	// Every pipeline stage has observations.
	counts := map[string]float64{}
	for _, s := range byName["ozz_stage_duration_seconds_count"] {
		counts[s.Get("stage")] = s.Value
	}
	for _, stage := range []string{"generate", "profile", "hints", "mti", "merge"} {
		if counts[stage] <= 0 {
			t.Errorf("stage %q has no duration observations (have %v)", stage, counts)
		}
	}
}

// TestObservabilityDocComplete diffs the metric names a campaign registers
// against the names documented in docs/OBSERVABILITY.md, both ways: every
// registered family must be documented, and every documented ozz_* token
// must exist in the registry.
func TestObservabilityDocComplete(t *testing.T) {
	// Registration happens at construction; no steps needed. The dist
	// families join the same registry so the doc covers the whole ozz_*
	// surface, fabric included.
	reg := obs.NewRegistry()
	core.NewPool(core.Config{Seed: 1, Obs: reg}, 2)
	dist.RegisterMetrics(reg)
	registered := map[string]bool{}
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, "ozz_") {
			registered[n] = true
		}
	}

	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading metric reference: %v", err)
	}
	tokenRe := regexp.MustCompile(`ozz_[a-z0-9_]+`)
	documented := map[string]bool{}
	for _, tok := range tokenRe.FindAllString(string(doc), -1) {
		// Exposition-level suffixes refer to their histogram family.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(tok, suffix); registered[base] {
				tok = base
				break
			}
		}
		documented[tok] = true
	}

	var missing, stale []string
	for n := range registered {
		if !documented[n] {
			missing = append(missing, n)
		}
	}
	for n := range documented {
		if !registered[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("metrics registered but not documented in docs/OBSERVABILITY.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("metrics documented in docs/OBSERVABILITY.md but not registered: %v", stale)
	}
}

// TestObservabilityEventOrdering checks the JSONL guarantees on a real
// 4-worker campaign: seq globally gap-free, wseq gap-free per worker, and
// step events attributed to pool workers (non-zero worker IDs).
func TestObservabilityEventOrdering(t *testing.T) {
	_, events := runInstrumentedCampaign(t, 16)
	var seq uint64
	wseq := map[int]uint64{}
	workersSeen := map[int]bool{}
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) < 16 {
		t.Fatalf("got %d event lines, want >= 16 (one per step)", len(lines))
	}
	for i, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		seq++
		if ev.Seq != seq {
			t.Fatalf("line %d: seq = %d, want gap-free %d", i+1, ev.Seq, seq)
		}
		wseq[ev.Worker]++
		if ev.WSeq != wseq[ev.Worker] {
			t.Fatalf("line %d: worker %d wseq = %d, want gap-free %d", i+1, ev.Worker, ev.WSeq, wseq[ev.Worker])
		}
		if ev.Kind == "step" {
			workersSeen[ev.Worker] = true
		}
	}
	for w := range workersSeen {
		if w < 1 || w > 4 {
			t.Errorf("step event from worker %d, want pool workers 1..4", w)
		}
	}
	if len(workersSeen) < 2 {
		t.Errorf("step events came from %d distinct workers, want >= 2", len(workersSeen))
	}
}
