package core

import (
	"reflect"
	"strings"
	"testing"

	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// table34Switches returns the bug switches of every Table 3 and Table 4
// row.
func table34Switches() modules.BugSet {
	var names []string
	for _, b := range modules.AllBugs() {
		if strings.HasPrefix(b.ID, "T3#") || strings.HasPrefix(b.ID, "T4#") {
			names = append(names, b.Switch)
		}
	}
	return modules.Bugs(names...)
}

// replayed returns how many of p's steps replayed from the step memo.
func replayed(p *Pool) uint64 { return p.Stats().Perf.STICacheHits }

// TestStepMemoEquivalence: replaying steps from the memo changes nothing
// a campaign reports. Memo and no-memo campaigns match on Stats (minus
// Perf), coverage, corpus, discovery order and every rendered report,
// Tests and HintRank included — on the fixed kernel, with every Table 3/4
// switch on (triage and cross-model probes), and with fence repair on.
func TestStepMemoEquivalence(t *testing.T) {
	const steps = 512
	cases := []struct {
		name    string
		cfg     Config
		workers []int
	}{
		{"fixed/seed1", Config{Seed: 1}, []int{1, 2}},
		{"fixed/seed2", Config{Seed: 2}, []int{1, 2}},
		{"fixed/seed3", Config{Seed: 3}, []int{1, 2}},
		{"table34", Config{Seed: 7, UseSeeds: true, Bugs: table34Switches()}, []int{1, 2}},
		{"repair", Config{Seed: 3, UseSeeds: true, Bugs: table34Switches(), Repair: true}, []int{2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range c.workers {
				ref := withoutStepMemo(NewPool(c.cfg, w))
				want := fingerprintPool(ref, steps)
				if n := replayed(ref); n != 0 {
					t.Fatalf("width %d: %d steps replayed with the memo off", w, n)
				}
				p := NewPool(c.cfg, w)
				got := fingerprintPool(p, steps)
				if replayed(p) == 0 {
					t.Fatalf("width %d: no step replayed; the test exercises nothing", w)
				}
				if got.stats != want.stats {
					t.Errorf("width %d: stats = %+v, want %+v", w, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.cov, want.cov) {
					t.Errorf("width %d: coverage diverged: %d edges vs %d", w, len(got.cov), len(want.cov))
				}
				if !reflect.DeepEqual(got.corpus, want.corpus) {
					t.Errorf("width %d: corpus diverged (%d vs %d programs)", w, len(got.corpus), len(want.corpus))
				}
				if !reflect.DeepEqual(got.found, want.found) {
					t.Errorf("width %d: discovery order = %v, want %v", w, got.found, want.found)
				}
				if !reflect.DeepEqual(got.reports, want.reports) {
					t.Errorf("width %d: rendered reports diverged", w)
				}
			}
		})
	}
}

// TestStepMemoReplayMatchesExecution: replaying a recorded step yields
// what executing its program again yields — the same counts and the same
// reports with job-local Tests — minus Models and SuggestedFix, which
// only titles not yet merged carry.
func TestStepMemoReplayMatchesExecution(t *testing.T) {
	cfg := Config{Seed: 7, UseSeeds: true, Bugs: table34Switches()}
	p := NewPool(cfg, 2)
	p.Run(256)
	ref := withoutStepMemo(NewPool(cfg, 1))
	var w worker
	compared, rebased := 0, 0
	for _, prog := range p.CorpusPrograms() {
		m := p.memo[prog.Key()]
		if m == nil {
			continue
		}
		var got jobResult
		m.replay(&got)
		want := ref.runJob(&w, job{prog: prog})
		if got.mtis != want.mtis || got.hints != want.hints || got.vacuous != want.vacuous || got.migrations != want.migrations {
			t.Errorf("%s: replayed counts %+v, executed %+v", prog, got, want)
		}
		if len(got.reports) != len(want.reports) {
			t.Fatalf("%s: replayed %d reports, executed %d", prog, len(got.reports), len(want.reports))
		}
		for k, jr := range want.reports {
			r := *jr.r
			r.Models, r.SuggestedFix = nil, nil
			if !reflect.DeepEqual(*got.reports[k].r, r) || got.reports[k].rebaseTests != jr.rebaseTests {
				t.Errorf("%s: replayed report\n%s\nexecuted\n%s", prog, got.reports[k].r, &r)
			}
			if jr.rebaseTests && r.Tests > 0 {
				rebased++
			}
		}
		compared++
	}
	if compared == 0 || rebased == 0 {
		t.Fatalf("compared %d memo entries with %d OOO reports; the test exercises nothing", compared, rebased)
	}
}

// TestStepMemoHits: a program repeated across batches replays from the
// memo, and the number of replayed steps is the same at every width.
func TestStepMemoHits(t *testing.T) {
	prog, err := modules.Target("watchqueue").Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\n")
	if err != nil {
		t.Fatal(err)
	}
	var hits []uint64
	for _, w := range []int{1, 2, 4} {
		p := NewPool(Config{Modules: []string{"watchqueue"}, Seed: 1}, w)
		// One batch of copies executes every step; the 8 copies in the
		// next batch replay.
		for k := 0; k < batchSize+8; k++ {
			p.AddSeeds([]*syzlang.Program{prog})
		}
		p.Run(4 * batchSize)
		s := p.Stats()
		if s.Perf.STICacheHits < 8 || s.Perf.STICacheHits+s.Perf.STICacheMisses != s.Steps {
			t.Errorf("width %d: %d hits, %d misses over %d steps; want >= 8 hits, one lookup per step",
				w, s.Perf.STICacheHits, s.Perf.STICacheMisses, s.Steps)
		}
		lookups := p.Obs().CounterVec("ozz_sti_cache_lookups_total", "", "outcome")
		if got := lookups.With("hit").Value(); got != s.Perf.STICacheHits {
			t.Errorf("width %d: ozz_sti_cache_lookups_total{outcome=hit} = %d, Stats say %d", w, got, s.Perf.STICacheHits)
		}
		hits = append(hits, s.Perf.STICacheHits)
	}
	if hits[1] != hits[0] || hits[2] != hits[0] {
		t.Errorf("replayed steps at widths 1, 2, 4 = %v, want equal", hits)
	}
}
