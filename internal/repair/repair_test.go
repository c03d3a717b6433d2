package repair

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
	"ozz/internal/obs"
)

// suiteTest fetches a litmus suite entry by name.
func suiteTest(t *testing.T, name string) *lkmm.Test {
	t.Helper()
	for _, e := range lkmm.Suite() {
		if e.Test.Name == name {
			return e.Test
		}
	}
	t.Fatalf("suite entry %q not found", name)
	return nil
}

// TestLitmusLoadBarrierRepair checks the load-barrier repair target: the
// "MP+wmb only" shape (writer fenced, reader not) must be repaired by an
// smp_rmb insertion on the reader thread, reported unnecessary under TSO.
func TestLitmusLoadBarrierRepair(t *testing.T) {
	res := Litmus(suiteTest(t, "MP+wmb only"), Options{})
	if len(res.BuggyOutcomes) == 0 {
		t.Fatalf("no buggy outcomes derived:\n%s", res.Render())
	}
	if len(res.Suggestions) == 0 {
		t.Fatalf("no suggestion found:\n%s", res.Render())
	}
	top := res.Suggestions[0]
	if len(top.Fences) != 1 {
		t.Fatalf("top suggestion not single-fence: %s", top)
	}
	f := top.Fences[0]
	if f.Action != ActionInsert || f.Barrier != "smp_rmb" || f.thread != 1 {
		t.Fatalf("top fence = %+v, want reader-side smp_rmb insertion", f)
	}
	verdicts := map[string]string{}
	for _, m := range top.Models {
		verdicts[m.Model] = m.Status
	}
	if verdicts["lkmm"] != StatusFixes || verdicts["armv8"] != StatusFixes {
		t.Fatalf("weak-model verdicts = %v, want fixes under lkmm and armv8", verdicts)
	}
	if verdicts["tso"] != StatusUnnecessary {
		t.Fatalf("tso verdict = %q, want %q (FIFO store buffer cannot reach the bug)", verdicts["tso"], StatusUnnecessary)
	}
	if !strings.Contains(top.String(), "insert smp_rmb between ") {
		t.Fatalf("rendered suggestion %q lacks the patch instruction", top.String())
	}
}

// TestLitmusTwoFenceRepair checks the ascending-size search: fully
// relaxed MP needs one fence per thread, so size 1 must come up empty and
// the minimal suggestions must pair a writer-side store fence with a
// reader-side load fence.
func TestLitmusTwoFenceRepair(t *testing.T) {
	res := Litmus(suiteTest(t, "MP (relaxed)"), Options{})
	if len(res.Suggestions) == 0 {
		t.Fatalf("no suggestion found:\n%s", res.Render())
	}
	top := res.Suggestions[0]
	if len(top.Fences) != 2 {
		t.Fatalf("top suggestion = %s, want a two-fence repair", top)
	}
	threads := map[int]bool{}
	for _, f := range top.Fences {
		threads[f.thread] = true
	}
	if !threads[0] || !threads[1] {
		t.Fatalf("top suggestion %s does not fence both threads", top)
	}
}

// TestLitmusNothingToRepair checks that an already-correct shape yields
// an empty buggy-outcome set and no suggestions.
func TestLitmusNothingToRepair(t *testing.T) {
	res := Litmus(suiteTest(t, "MP+wmb+rmb"), Options{})
	if len(res.BuggyOutcomes) != 0 || len(res.Suggestions) != 0 {
		t.Fatalf("correct shape produced a repair:\n%s", res.Render())
	}
	if !strings.Contains(res.Render(), "nothing to repair") {
		t.Fatalf("Render() lacks the nothing-to-repair notice:\n%s", res.Render())
	}
}

// TestMinimality is the minimality property over every suite-derived
// suggestion: dropping any single fence from a suggested repair must
// re-admit a buggy outcome in the reference model.
func TestMinimality(t *testing.T) {
	for _, e := range lkmm.Suite() {
		res := Litmus(e.Test, Options{})
		if len(res.Suggestions) == 0 {
			continue
		}
		p := newProblem(e.Test, litmusLabels(e.Test), Options{}, -1)
		var w searchers
		for _, sug := range res.Suggestions {
			if !p.legal(&w, sug.Fences, p.primary) {
				t.Errorf("%s: suggestion %s is not legal", e.Test.Name, sug)
			}
			if len(sug.Fences) == 1 {
				// The empty candidate is the unrepaired test, which has a
				// non-empty buggy set by construction.
				continue
			}
			for drop := range sug.Fences {
				var sub []Fence
				for i, f := range sug.Fences {
					if i != drop {
						sub = append(sub, f)
					}
				}
				if p.legal(&w, sub, p.primary) {
					t.Errorf("%s: suggestion %s is not minimal — dropping %s keeps it legal",
						e.Test.Name, sug, sug.Fences[drop])
				}
			}
		}
	}
}

// TestEnumerationDeterminism checks that repair results are identical
// across repeated runs and across worker counts.
func TestEnumerationDeterminism(t *testing.T) {
	for _, name := range []string{"MP (relaxed)", "MP+wmb only"} {
		base := Litmus(suiteTest(t, name), Options{Workers: 1})
		for _, workers := range []int{1, 4} {
			for run := 0; run < 2; run++ {
				got := Litmus(suiteTest(t, name), Options{Workers: workers})
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("%s: result diverged (workers=%d run=%d):\nbase: %s\ngot:  %s",
						name, workers, run, base.Render(), got.Render())
				}
			}
		}
	}
}

// TestLegalityMemo runs the Litmus search over every suite shape with a
// counting reference enumerator (buggy sets), a counting reachability
// check (legality) and a counting OEMU litmus search (closure): with
// the legality and litmus closure memos, no (test, model) pair may be
// explored twice by any of them — across size classes, per-model reports,
// or concurrent workers — and the result must deep-equal both Litmus and
// the unmemoized search.
func TestLegalityMemo(t *testing.T) {
	for _, e := range lkmm.Suite() {
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}
			var mu sync.Mutex
			explored := map[string]int{}
			reached := map[string]int{}
			closed := map[string]int{}
			p := newProblem(e.Test, litmusLabels(e.Test), opts, -1)
			p.enumerate = func(r *model.Reacher, test *lkmm.Test, mm *memmodel.Table) *model.Result {
				mu.Lock()
				explored[fmt.Sprintf("%s %v", mm.Name(), test.Threads)]++
				mu.Unlock()
				return r.RunModel(test, mm)
			}
			p.reach = func(r *model.Reacher, test *lkmm.Test, mm *memmodel.Table, targets [][]uint64) bool {
				mu.Lock()
				reached[fmt.Sprintf("%s %v", mm.Name(), test.Threads)]++
				mu.Unlock()
				return r.Reaches(test, mm, targets)
			}
			p.litmusReach = func(r *lkmm.Reacher, test *lkmm.Test, mm *memmodel.Table, targets [][]uint64) bool {
				mu.Lock()
				closed[fmt.Sprintf("%s %v", mm.Name(), test.Threads)]++
				mu.Unlock()
				return r.Reaches(test, mm, targets)
			}
			got := p.run(e.Test.Name, "litmus")
			for k, n := range explored {
				if n > 1 {
					t.Errorf("%s (workers=%d): %d explorations of %s", e.Test.Name, workers, n, k)
				}
			}
			for k, n := range reached {
				if n > 1 {
					t.Errorf("%s (workers=%d): %d legality checks of %s", e.Test.Name, workers, n, k)
				}
			}
			if len(got.BuggyOutcomes) > 0 && len(reached) == 0 {
				t.Errorf("%s (workers=%d): search with buggy outcomes made no legality check", e.Test.Name, workers)
			}
			for k, n := range closed {
				if n > 1 {
					t.Errorf("%s (workers=%d): %d litmus closure searches of %s", e.Test.Name, workers, n, k)
				}
			}
			if want := Litmus(e.Test, opts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (workers=%d): counted search diverged from Litmus:\ngot:  %s\nwant: %s",
					e.Test.Name, workers, got.Render(), want.Render())
			}
			plain := newProblem(e.Test, litmusLabels(e.Test), opts, -1)
			plain.legality, plain.litmusClosed = nil, nil
			if want := plain.run(e.Test.Name, "litmus"); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (workers=%d): memoized search diverged from unmemoized:\ngot:  %s\nwant: %s",
					e.Test.Name, workers, got.Render(), want.Render())
			}
		}
	}
}

// TestFenceSetKeyInjective checks that distinct candidates of sizes 1 and
// 2 never share a legality memo key.
func TestFenceSetKeyInjective(t *testing.T) {
	test := suiteTest(t, "MP (relaxed)")
	singles := newProblem(test, litmusLabels(test), Options{}, -1).singleFences()
	seen := map[string][]Fence{}
	for size := 1; size <= 2; size++ {
		for _, c := range combinations(singles, size) {
			k := fenceSetKey(c)
			if prev, ok := seen[k]; ok {
				t.Fatalf("candidates %v and %v share a key", prev, c)
			}
			seen[k] = c
		}
	}
}

// TestBuggySetIsWeakOnly cross-checks the buggy-outcome derivation: every
// buggy outcome must be reachable under the primary model and unreachable
// under the SC baseline.
func TestBuggySetIsWeakOnly(t *testing.T) {
	test := suiteTest(t, "MP (relaxed)")
	p := newProblem(test, litmusLabels(test), Options{}, -1)
	b := p.buggySet(p.primary).outcomes
	if len(b) == 0 {
		t.Fatal("relaxed MP has no weak-only outcomes")
	}
	weak := model.RunModel(test, p.primary)
	sc := model.RunModel(test, scBaseline)
	for _, o := range b {
		if !weak.Has(o) {
			t.Errorf("buggy outcome %s not reachable under the primary model", o)
		}
		if sc.Has(o) {
			t.Errorf("buggy outcome %s reachable under SC", o)
		}
	}
}

// TestMetricsAccounting checks the ozz_repair_* counters line up with the
// returned SearchStats.
func TestMetricsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	m := RegisterMetrics(reg)
	res := Litmus(suiteTest(t, "MP+wmb only"), Options{Metrics: m})
	if got := m.Searches.Value(); got != 1 {
		t.Errorf("searches counter = %d, want 1", got)
	}
	if got := m.CandidatesEnumerated.Value(); got != uint64(res.Stats.Enumerated) {
		t.Errorf("enumerated counter = %d, stats say %d", got, res.Stats.Enumerated)
	}
	if got := m.CandidatesValidated.Value(); got != uint64(res.Stats.Validated) {
		t.Errorf("validated counter = %d, stats say %d", got, res.Stats.Validated)
	}
	rejected := m.CandidatesRejected.With("legality").Value() +
		m.CandidatesRejected.With("closure").Value() +
		m.CandidatesRejected.With("minimality").Value()
	wantRejected := uint64(res.Stats.RejectedLegality + res.Stats.RejectedClosure + res.Stats.RejectedMinimality)
	if rejected != wantRejected {
		t.Errorf("rejected counters = %d, stats say %d", rejected, wantRejected)
	}
	if got := m.SuggestionsTotal.Value(); got != 1 {
		t.Errorf("suggestions counter = %d, want 1", got)
	}
	// A nil Metrics must be a no-op, not a panic.
	if nilRes := Litmus(suiteTest(t, "MP+wmb only"), Options{}); nilRes.Stats.Enumerated != res.Stats.Enumerated {
		t.Errorf("nil-metrics search diverged: %d vs %d candidates", nilRes.Stats.Enumerated, res.Stats.Enumerated)
	}
}

// litmusSink keeps benchmarked results live.
var litmusSink *Result

// BenchmarkLitmusRepair runs the Litmus repair search over every named
// suite shape once per iteration, under each registered memory model.
func BenchmarkLitmusRepair(b *testing.B) {
	suite := lkmm.Suite()
	for _, mm := range memmodel.All() {
		b.Run(mm.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range suite {
					litmusSink = Litmus(e.Test, Options{Model: mm})
				}
			}
		})
	}
}

// legalitySink keeps benchmarked verdicts live.
var legalitySink bool

// BenchmarkLegality runs every size-1 and size-2 legality check of every
// named suite shape once per iteration, with the legality memo off, so
// each check builds its repaired test and searches the reference model.
// Each shape's problem and worker storage persist across iterations, as
// they do across one search's candidates.
func BenchmarkLegality(b *testing.B) {
	type shape struct {
		p     *problem
		w     searchers
		cands [][]Fence
	}
	var shapes []*shape
	for _, e := range lkmm.Suite() {
		p := newProblem(e.Test, litmusLabels(e.Test), Options{}, -1)
		p.legality = nil
		p.buggySet(p.primary)
		singles := p.singleFences()
		shapes = append(shapes, &shape{p: p, cands: append(combinations(singles, 1), combinations(singles, 2)...)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range shapes {
			for _, c := range s.cands {
				legalitySink = s.p.legal(&s.w, c, s.p.primary)
			}
		}
	}
}
