package repair

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
		for _, sug := range res.Suggestions {
			if !p.checkLegal(sug.Fences, p.primary) {
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
				if p.checkLegal(sub, p.primary) {
					t.Errorf("%s: suggestion %s is not minimal — dropping %s keeps it legal",
						e.Test.Name, sug, sug.Fences[drop])
				}
			}
		}
	}
}

// TestEnumerationDeterminism checks that repair results are identical
// across repeated runs.
func TestEnumerationDeterminism(t *testing.T) {
	for _, name := range []string{"MP (relaxed)", "MP+wmb only"} {
		base := Litmus(suiteTest(t, name), Options{})
		for run := 0; run < 2; run++ {
			if got := Litmus(suiteTest(t, name), Options{}); !reflect.DeepEqual(base, got) {
				t.Fatalf("%s: result diverged (run=%d):\nbase: %s\ngot:  %s",
					name, run, base.Render(), got.Render())
			}
		}
	}
}

// TestSearchChecksOnce runs the Litmus search over every suite shape with
// a counting reference enumerator (buggy sets) and a counting
// reachability check (legality): no (test, model) pair may be explored
// twice by either — across size classes or per-model reports — and the
// result must deep-equal the reference search.
// The same search with a closure oracle that rejects every candidate
// searches every size class up to 3, so minimality checks sub-candidates
// that no earlier check reached; it must not repeat a check either.
func TestSearchChecksOnce(t *testing.T) {
	for _, e := range lkmm.Suite() {
		checkOnce(t, e.Test, nil)
		checkOnce(t, e.Test, closeNone)
	}
	checkOnce(t, sbRing(), closeNone)
}

// checkOnce runs one search of test, with closure as its closure oracle
// (nil: none, as in litmus mode, up to 2 fences; otherwise up to 3),
// counting every enumeration and legality check.
func checkOnce(t *testing.T, test *lkmm.Test, closure func([]Fence, *memmodel.Table) bool) {
	t.Helper()
	opts := Options{}
	if closure != nil {
		opts.MaxFences = 3
	}
	search := func() *problem {
		p := newProblem(test, litmusLabels(test), opts, -1)
		p.closure = closure
		return p
	}
	explored := map[string]int{}
	reached := map[string]int{}
	p := search()
	p.enumerate = func(r *model.Reacher, test *lkmm.Test, mm *memmodel.Table) *model.Result {
		explored[fmt.Sprintf("%s %v", mm.Name(), test.Threads)]++
		return r.RunModel(test, mm)
	}
	p.reach = func(r *model.Reacher, test *lkmm.Test, mm *memmodel.Table, targets [][]uint64) bool {
		reached[fmt.Sprintf("%s %v", mm.Name(), test.Threads)]++
		return r.Reaches(test, mm, targets)
	}
	got := p.run(test.Name, "litmus")
	for what, counts := range map[string]map[string]int{
		"explorations": explored, "legality checks": reached,
	} {
		for k, n := range counts {
			if n > 1 {
				t.Errorf("%s (oracle %t): %d %s of %s", test.Name, closure != nil, n, what, k)
			}
		}
	}
	if len(got.BuggyOutcomes) > 0 && len(reached) == 0 {
		t.Errorf("%s (oracle %t): search with buggy outcomes made no legality check", test.Name, closure != nil)
	}
	if want := referenceSearch(search()); !reflect.DeepEqual(got, want) {
		t.Errorf("%s (oracle %t): counted search diverged from the reference:\ngot:  %s\nwant: %s",
			test.Name, closure != nil, got.Render(), want.Render())
	}
}

// closeNone is a closure oracle that rejects every candidate.
func closeNone([]Fence, *memmodel.Table) bool { return false }

// closeBarriersOnly is a closure oracle that rejects every candidate
// with a strengthening, so a legal strengthening is unclosed and the
// search goes on to larger candidates.
func closeBarriersOnly(fences []Fence, _ *memmodel.Table) bool {
	for _, f := range fences {
		if f.Action == ActionStrengthen {
			return false
		}
	}
	return true
}

// sbRing is a three-thread store-buffering ring: each thread stores to
// its own location and then loads its successor's. All three loads
// reading 0 needs every store-load pair reordered, so the repair needs
// a full barrier on every thread — the only suite-sized test whose
// search reaches size class 3.
func sbRing() *lkmm.Test {
	return &lkmm.Test{Name: "SB ring (3 threads)", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.R(1, 0)},
		{lkmm.W(1, 1), lkmm.R(2, 1)},
		{lkmm.W(2, 1), lkmm.R(0, 2)},
	}, NumLocs: 3, NumRegs: 3}
}

// combinations generates every size-k subset of singles in lexicographic
// index order, by recursion rather than nextCombination's successor step.
func combinations(singles []Fence, k int) [][]Fence {
	var out [][]Fence
	for _, idx := range indexCombinations(len(singles), k) {
		c := make([]Fence, k)
		for i, j := range idx {
			c[i] = singles[j]
		}
		out = append(out, c)
	}
	return out
}

// indexCombinations generates every size-k subset of {0, ..., n-1} as
// ascending indexes, in lexicographic order.
func indexCombinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, slices.Clone(idx))
			return
		}
		for j := start; j <= n-(k-depth); j++ {
			idx[depth] = j
			rec(j+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// referenceSearch is p's search with no verdict reused: every candidate
// re-checks each drop-one sub-candidate, and every per-model report
// checks legality and closure afresh, the primary model's too.
func referenceSearch(p *problem) *Result {
	res := &Result{Target: p.test.Name, Kind: "litmus", Model: p.primary.Name()}
	for _, o := range p.buggySet(p.primary).outcomes {
		res.BuggyOutcomes = append(res.BuggyOutcomes, string(o))
	}
	if len(res.BuggyOutcomes) == 0 {
		return res
	}
	singles := p.singleFences()
	for size := 1; size <= p.opts.maxFences() && len(res.Suggestions) == 0; size++ {
		cands := combinations(singles, size)
		res.Stats.Enumerated += len(cands)
	cand:
		for _, c := range cands {
			for drop := range c {
				if len(c) > 1 && p.checkLegal(slices.Delete(slices.Clone(c), drop, drop+1), p.primary) {
					res.Stats.RejectedMinimality++
					continue cand
				}
			}
			if !p.checkLegal(c, p.primary) {
				res.Stats.RejectedLegality++
				continue
			}
			if !p.closes(c, p.primary) {
				res.Stats.RejectedClosure++
				continue
			}
			res.Stats.Validated++
			sug := &Suggestion{Fences: c}
			for _, mm := range memmodel.All() {
				status := StatusInsufficient
				switch {
				case len(p.buggySet(mm).outcomes) == 0:
					status = StatusUnnecessary
				case p.checkLegal(c, mm) && p.closes(c, mm):
					status = StatusFixes
				}
				sug.Models = append(sug.Models, ModelReport{Model: mm.Name(), Status: status})
			}
			res.Suggestions = append(res.Suggestions, sug)
		}
	}
	rankSuggestions(res.Suggestions)
	return res
}

// TestMatchesReferenceSearch checks the search, which reads the previous
// size class's legality verdicts and the primary model's own, against
// referenceSearch, which reuses none: every suite shape and the
// three-thread store-buffering ring, under lkmm, tso and armv8, at
// MaxFences 1 to 3, with no closure oracle (litmus mode) and with one
// that rejects strengthenings (so minimality also checks
// sub-candidates that minimality rejected before their own legality
// check). The ring under lkmm must reach size class 3 and validate
// exactly one candidate, a full barrier on every thread.
func TestMatchesReferenceSearch(t *testing.T) {
	tests := []*lkmm.Test{sbRing()}
	for _, e := range lkmm.Suite() {
		tests = append(tests, e.Test)
	}
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		mm, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range tests {
			for max := 1; max <= 3; max++ {
				for _, closure := range []func([]Fence, *memmodel.Table) bool{nil, closeBarriersOnly} {
					search := func() *problem {
						p := newProblem(test, litmusLabels(test), Options{Model: mm, MaxFences: max}, -1)
						p.closure = closure
						return p
					}
					got, want := search().run(test.Name, "litmus"), referenceSearch(search())
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s under %s, MaxFences %d (oracle %t): search diverged from the reference:\ngot:  %s\nwant: %s",
							test.Name, name, max, closure != nil, got.Render(), want.Render())
					}
				}
			}
		}
	}
	res := Litmus(sbRing(), Options{MaxFences: 3})
	if res.Stats.Enumerated != 575 || len(res.Suggestions) != 1 {
		t.Fatalf("SB ring: %d candidates and %d suggestions, want 575 and 1:\n%s",
			res.Stats.Enumerated, len(res.Suggestions), res.Render())
	}
	for _, f := range res.Suggestions[0].Fences {
		if f.Action != ActionInsert || f.Barrier != "smp_mb" {
			t.Fatalf("SB ring suggestion %s is not an smp_mb on every thread", res.Suggestions[0])
		}
	}
}

// TestRank checks that nextCombination walks the subsets in the order
// indexCombinations generates them, and that rank gives each subset, and
// each of its drop-one subsets, its position in that order, for n <= 9
// and k <= 4.
func TestRank(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for k := 1; k <= 4 && k <= n; k++ {
			all := indexCombinations(n, k)
			if len(all) != binomial(n, k) {
				t.Fatalf("n=%d k=%d: %d subsets, binomial says %d", n, k, len(all), binomial(n, k))
			}
			var below map[string]int
			if k > 1 {
				below = map[string]int{}
				for i, sub := range indexCombinations(n, k-1) {
					below[fmt.Sprint(sub)] = i
				}
			}
			idx := slices.Clone(all[0])
			for i, want := range all {
				if i > 0 && !nextCombination(idx, n) {
					t.Fatalf("n=%d k=%d: walk ended after %d subsets", n, k, i)
				}
				if !slices.Equal(idx, want) {
					t.Fatalf("n=%d k=%d: subset %d walked as %v, want %v", n, k, i, idx, want)
				}
				if r := rank(idx, -1, n); r != i {
					t.Errorf("n=%d k=%d: rank(%v) = %d, want %d", n, k, idx, r, i)
				}
				for drop := range idx {
					if k == 1 {
						break
					}
					sub := slices.Delete(slices.Clone(idx), drop, drop+1)
					if r := rank(idx, drop, n); r != below[fmt.Sprint(sub)] {
						t.Errorf("n=%d k=%d: rank(%v without %d) = %d, want %d", n, k, idx, drop, r, below[fmt.Sprint(sub)])
					}
				}
			}
			if nextCombination(idx, n) {
				t.Errorf("n=%d k=%d: walk continued past %v", n, k, all[len(all)-1])
			}
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
// named suite shape once per iteration, so each check builds its
// repaired test and searches the reference model. Each shape's problem
// and its storage persist across iterations, as they do across one
// search's candidates.
func BenchmarkLegality(b *testing.B) {
	type shape struct {
		p     *problem
		cands [][]Fence
	}
	var shapes []*shape
	for _, e := range lkmm.Suite() {
		p := newProblem(e.Test, litmusLabels(e.Test), Options{}, -1)
		p.buggySet(p.primary)
		singles := p.singleFences()
		shapes = append(shapes, &shape{p: p, cands: append(combinations(singles, 1), combinations(singles, 2)...)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range shapes {
			for _, c := range s.cands {
				legalitySink = s.p.checkLegal(c, s.p.primary)
			}
		}
	}
}
