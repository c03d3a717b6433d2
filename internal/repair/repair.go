// Package repair implements automatic fence repair: given a crashing
// out-of-order reproducer (a campaign finding with its scheduling hint and
// profiled access sites, or a litmus shape), it searches the space of
// memory-barrier insertions and access strengthenings for the smallest
// candidate that eliminates the buggy behaviour, validates every candidate
// two ways, and returns a ranked, per-model-annotated fix suggestion —
// "insert smp_wmb between site A and site B".
//
// A candidate is a set of fences. Each fence either inserts an explicit
// barrier (smp_wmb / smp_rmb / smp_mb) between two profiled accesses or
// strengthens an access annotation (READ_ONCE -> smp_load_acquire,
// WRITE_ONCE -> smp_store_release). Candidates are enumerated smallest
// first and validated in a deterministic order, so the first validated
// size class yields the minimal suggestions; within a class, suggestions
// rank by fence weight (weakest barriers first) with per-model breadth as
// the tie-break.
//
// Validation is two-layered (the Property-Driven Fence Insertion recipe
// combined with model-based checking):
//
//   - legality: the repaired program, re-run through the reference
//     enumerator (internal/lkmm/model) under the campaign's compiled
//     memmodel.Table, must no longer reach any buggy outcome. The buggy
//     outcome set is derived without knowing the crash's register values:
//     it is the weak-model outcome set minus the outcomes reachable under
//     a sequentially-consistent baseline table (nothing delayable, nothing
//     versionable) — exactly the behaviours only reordering can produce.
//   - closure: the live engine must agree. For in-vivo findings the
//     reproducer is re-executed under the OOO strategy with the
//     candidate's surviving reorder directives installed, across several
//     seeds and directive subsets; the crash must not reproduce. Litmus
//     inputs have no live engine run, so legality decides alone there:
//     the differential harness (internal/lkmm/diff) pins OEMU's litmus
//     outcome sets to the reference enumerator's, and a test checks that
//     every repaired suite test legality passes has equal outcome sets
//     under both.
//
// Every validated suggestion is additionally probed under every registered
// memory model and annotated per model: "fixes" (legal and closing),
// "unnecessary" (the model cannot reach any buggy outcome even unrepaired
// — e.g. an S-S reordering under TSO's FIFO store buffer), or
// "insufficient" (the buggy outcome survives the candidate).
package repair

import (
	"fmt"
	"sort"
	"strings"

	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// Fence action verbs (Fence.Action).
const (
	// ActionInsert inserts an explicit barrier between two accesses.
	ActionInsert = "insert"
	// ActionStrengthen upgrades an access annotation (acquire/release).
	ActionStrengthen = "strengthen"
)

// Per-model verdict values (ModelReport.Status).
const (
	// StatusFixes marks a model under which the candidate is both legal
	// (reference model) and closing (live engine / OEMU).
	StatusFixes = "fixes"
	// StatusUnnecessary marks a model that cannot reach any buggy outcome
	// even without the fix (e.g. S-S reordering under TSO).
	StatusUnnecessary = "unnecessary"
	// StatusInsufficient marks a model under which a buggy outcome
	// survives the candidate.
	StatusInsufficient = "insufficient"
)

// Fence is one element of a repair candidate: a barrier insertion between
// two profiled accesses or an access strengthening.
type Fence struct {
	// Action is ActionInsert or ActionStrengthen.
	Action string `json:"action"`
	// Barrier is the inserted barrier's Linux API name (smp_wmb, smp_rmb,
	// smp_mb); empty for strengthenings.
	Barrier string `json:"barrier,omitempty"`
	// After and Before label the accesses surrounding an insertion point
	// (module site names in vivo, thread-op labels for litmus shapes).
	After  string `json:"after,omitempty"`
	Before string `json:"before,omitempty"`
	// Site labels the strengthened access; To is the strengthened form's
	// API name (smp_load_acquire or smp_store_release).
	Site string `json:"site,omitempty"`
	To   string `json:"to,omitempty"`

	// Internal search coordinates on the litmus abstraction.
	thread int
	pos    int // insert: op index the barrier precedes; strengthen: op index
	bar    trace.BarrierKind
	atom   trace.Atomicity
	weight int
}

// String renders the fence as a patch instruction.
func (f Fence) String() string {
	if f.Action == ActionInsert {
		return fmt.Sprintf("insert %s between %s and %s", f.Barrier, f.After, f.Before)
	}
	return fmt.Sprintf("strengthen %s to %s", f.Site, f.To)
}

// ModelReport is one registered memory model's verdict on a suggestion.
type ModelReport struct {
	// Model is the memmodel registry name (lkmm, tso, armv8).
	Model string `json:"model"`
	// Status is StatusFixes, StatusUnnecessary, or StatusInsufficient.
	Status string `json:"status"`
}

// Suggestion is one validated repair candidate with its per-model verdicts.
type Suggestion struct {
	// Fences lists the candidate's fences (all are required; dropping any
	// one re-admits the buggy outcome in the reference model).
	Fences []Fence `json:"fences"`
	// Models holds one verdict per registered memory model, sorted by
	// model name.
	Models []ModelReport `json:"models"`
}

// weight is the candidate's rank key: the sum of its fences' strengths
// (smp_wmb/smp_rmb = 1, strengthenings = 2, smp_mb = 3) — weakest fix
// first.
func (s *Suggestion) weightSum() int {
	n := 0
	for _, f := range s.Fences {
		n += f.weight
	}
	return n
}

// fixBreadth counts the models the suggestion fixes (rank tie-break:
// broader fixes first).
func (s *Suggestion) fixBreadth() int {
	n := 0
	for _, m := range s.Models {
		if m.Status == StatusFixes {
			n++
		}
	}
	return n
}

// String renders the suggestion as a one-line patch instruction with the
// per-model verdicts grouped by status:
//
//	insert smp_wmb between A and B [fixes: armv8, lkmm; unnecessary: tso]
func (s *Suggestion) String() string {
	parts := make([]string, len(s.Fences))
	for i, f := range s.Fences {
		parts[i] = f.String()
	}
	var groups []string
	for _, st := range []string{StatusFixes, StatusUnnecessary, StatusInsufficient} {
		var names []string
		for _, m := range s.Models {
			if m.Status == st {
				names = append(names, m.Model)
			}
		}
		if len(names) > 0 {
			groups = append(groups, fmt.Sprintf("%s: %s", st, strings.Join(names, ", ")))
		}
	}
	out := strings.Join(parts, " + ")
	if len(groups) > 0 {
		out += " [" + strings.Join(groups, "; ") + "]"
	}
	return out
}

// SearchStats counts the search's candidate dispositions.
type SearchStats struct {
	// Enumerated counts candidates generated across all searched size
	// classes.
	Enumerated int `json:"enumerated"`
	// Validated counts candidates that passed legality, closure, and
	// minimality — the suggestions.
	Validated int `json:"validated"`
	// RejectedLegality counts candidates the reference model
	// rejected (a buggy outcome stayed reachable).
	RejectedLegality int `json:"rejected_legality"`
	// RejectedClosure counts legal candidates the live engine rejected
	// (the crash still reproduced with the candidate installed).
	RejectedClosure int `json:"rejected_closure"`
	// RejectedMinimality counts candidates with a strictly smaller legal
	// sub-candidate (a fence that could be dropped).
	RejectedMinimality int `json:"rejected_minimality"`
}

// Result is the outcome of one repair search, ranked best-first.
type Result struct {
	// Target names the repaired finding: the crash title in vivo, the
	// litmus shape name otherwise.
	Target string `json:"target"`
	// Kind is the reordering type ("S-S", "S-L", "L-L") for in-vivo
	// findings, "litmus" for litmus shapes.
	Kind string `json:"kind"`
	// Model is the primary memory model the search validated against.
	Model string `json:"model"`
	// BuggyOutcomes lists the weak-only outcomes of the unrepaired
	// abstraction under the primary model — the behaviours every
	// suggestion forbids. Empty means the model cannot reach the bug at
	// all and there is nothing to repair.
	BuggyOutcomes []string `json:"buggy_outcomes"`
	// Suggestions holds the validated candidates of the smallest
	// successful size class, ranked weakest-first.
	Suggestions []*Suggestion `json:"suggestions"`
	// Stats counts candidate dispositions.
	Stats SearchStats `json:"stats"`
}

// Lines renders the ranked suggestions as one-line patch instructions —
// the form report.Report.SuggestedFix carries.
func (r *Result) Lines() []string {
	out := make([]string, len(r.Suggestions))
	for i, s := range r.Suggestions {
		out[i] = s.String()
	}
	return out
}

// Render formats the whole search result as an indented text block for
// CLIs (cmd/ozz-repair, cmd/ozz-repro -repair).
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "repair: %s (%s, model %s)\n", r.Target, r.Kind, r.Model)
	fmt.Fprintf(&sb, "  buggy outcomes: %s\n", strings.Join(r.BuggyOutcomes, " | "))
	fmt.Fprintf(&sb, "  candidates: %d enumerated, %d validated (%d illegal, %d unclosed, %d non-minimal)\n",
		r.Stats.Enumerated, r.Stats.Validated,
		r.Stats.RejectedLegality, r.Stats.RejectedClosure, r.Stats.RejectedMinimality)
	if len(r.BuggyOutcomes) == 0 {
		fmt.Fprintf(&sb, "  nothing to repair: the model reaches no reordering-only outcome\n")
		return sb.String()
	}
	if len(r.Suggestions) == 0 {
		fmt.Fprintf(&sb, "  no validated repair within the candidate bound\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  suggested fixes:\n")
	for i, s := range r.Suggestions {
		fmt.Fprintf(&sb, "    %d. %s\n", i+1, s.String())
	}
	return sb.String()
}

// rankSuggestions orders validated candidates best-first: fewest fences,
// then lowest total weight (weakest barriers), then broadest per-model fix
// coverage; enumeration order breaks remaining ties deterministically.
func rankSuggestions(sugs []*Suggestion) {
	sort.SliceStable(sugs, func(a, b int) bool {
		if d := len(sugs[a].Fences) - len(sugs[b].Fences); d != 0 {
			return d < 0
		}
		if d := sugs[a].weightSum() - sugs[b].weightSum(); d != 0 {
			return d < 0
		}
		return sugs[a].fixBreadth() > sugs[b].fixBreadth()
	})
}

// fenceWeight maps a fence to its rank weight: weakest first.
func insertWeight(bk trace.BarrierKind) int {
	if bk == trace.BarrierFull {
		return 3
	}
	return 1
}

// scBaseline is the sequentially-consistent reference table used to derive
// buggy outcome sets: every barrier orders everything, no store is
// delayable, no load is versionable. It is compiled locally and never
// registered — campaigns cannot select it.
var scBaseline = memmodel.MustCompile(scDef())

func scDef() memmodel.Def {
	d := memmodel.Def{
		Name:     "sc-baseline",
		Barriers: map[trace.BarrierKind]memmodel.BarrierSem{},
		Stores:   map[trace.Atomicity]memmodel.StoreSem{},
		Loads:    map[trace.Atomicity]memmodel.LoadSem{},
		PPO:      memmodel.PPO{StoreStore: true},
	}
	for _, k := range trace.AllBarrierKinds() {
		d.Barriers[k] = memmodel.BarrierSem{OrdersStores: true, OrdersLoads: true}
	}
	for _, a := range trace.AllAtomicities() {
		d.Stores[a] = memmodel.StoreSem{}
		d.Loads[a] = memmodel.LoadSem{LoadBarrier: true}
	}
	return d
}
