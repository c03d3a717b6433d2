package repair

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/diff"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
)

// applyFences builds the repaired test of fences into fresh storage, so
// it stays valid while other candidates are built.
func applyFences(t *lkmm.Test, fences []Fence) *lkmm.Test {
	return new(repairedTest).build(t, fences)
}

// reachShapes lists the soundness sweep's tests: every suite shape, two
// hand-written shapes whose registers have two writers or none, and n
// generated shapes.
func reachShapes(n int) []*lkmm.Test {
	var out []*lkmm.Test
	for _, e := range lkmm.Suite() {
		out = append(out, e.Test)
	}
	out = append(out,
		// P1 loads y and then x into r0, so r0 is final only at exit;
		// r1 has no writer and stays 0.
		&lkmm.Test{Name: "MP+same-reg", Threads: [][]lkmm.Op{
			{lkmm.W(0, 1), lkmm.W(1, 1)},
			{lkmm.R(1, 0), lkmm.R(0, 0)},
		}, NumLocs: 2, NumRegs: 2},
		// Both threads of SB load into r0.
		&lkmm.Test{Name: "SB+shared-reg", Threads: [][]lkmm.Op{
			{lkmm.W(0, 1), lkmm.R(1, 0)},
			{lkmm.W(1, 2), lkmm.R(0, 0)},
		}, NumLocs: 2, NumRegs: 1},
	)
	for i := 0; i < n; i++ {
		out = append(out, diff.Shape(1, i))
	}
	return out
}

// TestReachesMatchesRunModel checks the goal-directed legality search
// against the full enumerator: under every registered model, each
// outcome RunModel returns is reachable on its own, an all-99 register
// vector is not, and with the problem's buggy set as targets, Reaches
// answers whether the set meets RunModel's outcomes, on the unrepaired
// test and on every single-fence candidate (of every fifth generated
// shape, which keeps the sweep near a second). One Reacher serves every
// question, so its storage is re-carved and reused across shapes too.
func TestReachesMatchesRunModel(t *testing.T) {
	var r model.Reacher
	checks := 0
	for _, mm := range memmodel.All() {
		shapes := reachShapes(2000)
		named := len(shapes) - 2000
		for i, test := range shapes {
			res := model.RunModel(test, mm)
			for o := range res.Outcomes {
				checks++
				if !r.Reaches(test, mm, [][]uint64{o.Regs()}) {
					t.Errorf("%s under %s: RunModel reaches %s, Reaches says no", test.Name, mm.Name(), o)
				}
			}
			if test.NumRegs > 0 {
				checks++
				none := make([]uint64, test.NumRegs)
				for i := range none {
					none[i] = 99
				}
				if r.Reaches(test, mm, [][]uint64{none}) {
					t.Errorf("%s under %s: Reaches found the unreachable %v", test.Name, mm.Name(), none)
				}
			}
			p := newProblem(test, litmusLabels(test), Options{Model: mm}, -1)
			buggy := p.buggySet(mm)
			variants := []*lkmm.Test{test}
			if i < named || (i-named)%5 == 0 {
				for _, f := range p.singleFences() {
					variants = append(variants, applyFences(test, []Fence{f}))
				}
			}
			for _, v := range variants {
				checks++
				want := false
				vres := model.RunModel(v, mm)
				for _, o := range buggy.outcomes {
					want = want || vres.Has(o)
				}
				if got := r.Reaches(v, mm, buggy.regs); got != want {
					t.Errorf("%s under %s: Reaches(buggy set %v) = %v, RunModel says %v\n%s",
						test.Name, mm.Name(), buggy.outcomes, got, want, diff.Format(v))
				}
			}
		}
	}
	t.Logf("%d checks", checks)
}

// TestLitmusRepairAgreesWithOEMU checks the premise that lets legality
// decide litmus repair alone: OEMU, which closure asks in vivo, reaches
// exactly the reference model's outcomes on every repaired test the
// search finds legal. For every suite shape under lkmm, tso and armv8 at
// MaxFences 1 to 3, it collects, through the reach seam, each repaired
// test whose legality check passed — minimality's sub-candidates and the
// per-model reports' other models included — and compares lkmm.RunModel
// with model.RunModel on it. Every shape's search stops by size class 2,
// so MaxFences 3 must return what 2 does.
func TestLitmusRepairAgreesWithOEMU(t *testing.T) {
	type repaired struct {
		test *lkmm.Test
		mm   *memmodel.Table
	}
	legal := map[string]repaired{}
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		mm, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range lkmm.Suite() {
			var results []*Result
			for max := 1; max <= 3; max++ {
				p := newProblem(e.Test, litmusLabels(e.Test), Options{Model: mm, MaxFences: max}, -1)
				p.reach = func(r *model.Reacher, test *lkmm.Test, mm *memmodel.Table, targets [][]uint64) bool {
					reached := r.Reaches(test, mm, targets)
					key := fmt.Sprintf("%s %v", mm.Name(), test.Threads)
					if _, seen := legal[key]; !seen && !reached {
						c := *test
						c.Threads = make([][]lkmm.Op, len(test.Threads))
						for ti, ops := range test.Threads {
							c.Threads[ti] = slices.Clone(ops)
						}
						legal[key] = repaired{&c, mm}
					}
					return reached
				}
				results = append(results, p.run(e.Test.Name, "litmus"))
			}
			if !reflect.DeepEqual(results[2], results[1]) {
				t.Errorf("%s under %s: MaxFences 3 differs from 2:\n3: %s\n2: %s",
					e.Test.Name, name, results[2].Render(), results[1].Render())
			}
		}
	}
	if len(legal) == 0 {
		t.Fatal("no legal repaired test was collected")
	}
	for _, r := range legal {
		if d := diff.CompareModel(r.test, r.mm); d != nil {
			t.Errorf("repaired %s under %s: OEMU and the reference model disagree: %s\n%s",
				r.test.Name, r.mm.Name(), d, diff.Format(r.test))
		}
	}
	t.Logf("%d legal repaired tests", len(legal))
}

// TestLegalityAllocsIndependentOfStates checks that a problem's legality
// checks reuse its storage: once the problem has made its first check,
// a check allocates nothing — not its repaired test, not its
// search — whether its search visits few states or many. The small and
// large candidates are
// the legal size-1 or size-2 candidates of one suite shape whose full
// enumerations visit the fewest and the most states, from the shape where
// those two counts differ most.
func TestLegalityAllocsIndependentOfStates(t *testing.T) {
	type cand struct {
		fences []Fence
		states int
	}
	var p *problem
	var small, large cand
	for _, e := range lkmm.Suite() {
		q := newProblem(e.Test, litmusLabels(e.Test), Options{}, -1)
		if len(q.buggySet(q.primary).outcomes) == 0 {
			// Every candidate is legal without a search.
			continue
		}
		var lo, hi cand
		singles := q.singleFences()
		for _, c := range append(combinations(singles, 1), combinations(singles, 2)...) {
			if !q.checkLegal(c, q.primary) {
				continue
			}
			n := model.RunModel(applyFences(e.Test, c), q.primary).States
			if lo.fences == nil || n < lo.states {
				lo = cand{c, n}
			}
			if hi.fences == nil || n > hi.states {
				hi = cand{c, n}
			}
		}
		if hi.states-lo.states > large.states-small.states {
			p, small, large = q, lo, hi
		}
	}
	if p == nil {
		t.Fatal("no suite shape has legal candidates with different state counts")
	}
	p.checkLegal(small.fences, p.primary)
	for _, c := range []cand{small, large} {
		check := testing.AllocsPerRun(20, func() { p.checkLegal(c.fences, p.primary) })
		t.Logf("%s %v: %d states, check %.0f allocs", p.test.Name, c.fences, c.states, check)
		if check != 0 {
			t.Errorf("%s %v (%d states): warm legality check allocates %.0f, want 0",
				p.test.Name, c.fences, c.states, check)
		}
	}
}
