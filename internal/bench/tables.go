package bench

import (
	"fmt"
	"strings"

	"ozz/internal/baseline/ofence"
	"ozz/internal/core"
	"ozz/internal/engine"
	"ozz/internal/modules"
	"ozz/internal/sched"
)

// BugRunResult is one row of the Table 3 / Table 4 harnesses.
type BugRunResult struct {
	Bug   modules.BugInfo
	Found bool
	// Tests is the number of hypothetical-barrier test executions (MTIs)
	// until the bug fired (the Table 4 "# of tests" column).
	Tests int
	// HintRank is the §4.3 search-heuristic rank of the triggering hint
	// (1 = the hint reordering the most accesses).
	HintRank int
}

// runBug runs a seeded OZZ campaign against one bug and reports the
// outcome. The campaign's MTIs run under strat, or under the default
// migration-aware OOO strategy when strat is nil.
func runBug(b modules.BugInfo, budget int, strat engine.Strategy) BugRunResult {
	p := core.NewPool(campaignConfig(core.Config{
		Modules:  []string{b.Module},
		Bugs:     modules.Bugs(b.Switch),
		Seed:     42,
		UseSeeds: true,
	}), 1)
	if strat != nil {
		p.Env().Strategy = strat
	}
	want := b.Title
	if want == "" {
		want = b.SoftTitle
	}
	r := p.RunUntil(want, budget)
	if r == nil {
		return BugRunResult{Bug: b}
	}
	return BugRunResult{Bug: b, Found: true, Tests: r.Tests, HintRank: r.HintRank}
}

// RunTable3 reproduces Table 3: OZZ finds each of the 11 new bugs.
func RunTable3(budget int) []BugRunResult {
	var rows []BugRunResult
	for _, b := range modules.AllBugs() {
		if b.Table != 3 {
			continue
		}
		rows = append(rows, runBug(b, budget, nil))
	}
	return rows
}

// FormatTable3 renders the Table 3 text table.
func FormatTable3(rows []BugRunResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-7s %-9s %-11s %-10s %-6s %s\n", "ID", "Version", "Subsystem", "Status", "Found", "Summary")
	for _, r := range rows {
		found := "no"
		if r.Found {
			found = "YES"
		}
		fmt.Fprintf(&sb, "%-7s %-9s %-11s %-10s %-6s %s\n",
			r.Bug.ID, r.Bug.KernelVersion, r.Bug.Subsystem, r.Bug.Status, found, r.Bug.Title)
	}
	return sb.String()
}

// RunTable4 reproduces Table 4: the known-bug benchmark. Every row —
// sbitmap included — runs under the migration-aware OOO strategy, so the
// migration-sensitive #6 reproduces organically (9/9; the paper reports
// 8/9 with pinned threads plus a manual §6.2 assist).
func RunTable4(budget int) []BugRunResult {
	var rows []BugRunResult
	for _, b := range modules.AllBugs() {
		if b.Table != 4 {
			continue
		}
		rows = append(rows, runBug(b, budget, nil))
	}
	return rows
}

// RunSbitmapPinned is the §6.2 negative control: sbitmap under the
// paper's pinned-thread OOO executor (no cross-CPU moves) must NOT
// reproduce — each thread resolves its own per-CPU copy, so the freed word
// is never observed stale. The sbitmap row in RunTable4 is the positive.
func RunSbitmapPinned(budget int) BugRunResult {
	b, _ := modules.FindBug("sbitmap:freed_order")
	return runBug(b, budget, pinned{})
}

// pinned is the OOO strategy with its migration removed: the plan's
// sched.MigrateAt wrapper, present for migration-sensitive hints, is
// replaced by the breakpoint it wraps, so both tasks stay on their CPUs.
type pinned struct{ engine.OOO }

// Pair implements engine.Strategy.
func (pinned) Pair(req *engine.Request, plan *engine.PairPlan) bool {
	if !(engine.OOO{}).Pair(req, plan) {
		return false
	}
	if ma, ok := plan.Policy.(*sched.MigrateAt); ok {
		plan.Policy = ma.Inner
	}
	return true
}

// FormatTable4 renders the Table 4 text table.
func FormatTable4(rows []BugRunResult, pinned BugRunResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-7s %-11s %-9s %-12s %-10s %-5s\n", "ID", "Subsystem", "Version", "Reproduced?", "# of tests", "Type")
	for _, r := range rows {
		rep := "x"
		tests := "-"
		typ := r.Bug.Type
		switch {
		case r.Found && r.Bug.Repro == "partial":
			rep = "yes*" // wrong-value symptom, not a crash
			tests = fmt.Sprintf("%d", r.Tests)
		case r.Found:
			rep = "yes"
			tests = fmt.Sprintf("%d", r.Tests)
		}
		fmt.Fprintf(&sb, "%-7s %-11s %-9s %-12s %-10s %-5s\n",
			r.Bug.ID, r.Bug.Subsystem, r.Bug.KernelVersion, rep, tests, typ)
	}
	fmt.Fprintf(&sb, "\ncontrol: sbitmap under pinned-thread OOO (no migration, §6.2):\n")
	rep := "x (expected: per-CPU copies never alias)"
	if pinned.Found {
		rep = fmt.Sprintf("yes (%d tests) — UNEXPECTED", pinned.Tests)
	}
	fmt.Fprintf(&sb, "%-7s %-11s %-9s %s\n", pinned.Bug.ID, pinned.Bug.Subsystem, pinned.Bug.KernelVersion, rep)
	return sb.String()
}

// HeuristicRow is the §4.3 search-heuristic validation: which hint rank
// triggered each bug. The paper reports 11 of 19 bugs triggered by the
// maximum-reordering hint and 6 by the second largest.
type HeuristicRow struct {
	Bug  modules.BugInfo
	Rank int
}

// RunHeuristic measures the triggering hint rank for every reproducible
// OOO bug of the corpus.
func RunHeuristic(budget int) ([]HeuristicRow, map[int]int) {
	var rows []HeuristicRow
	dist := map[int]int{}
	for _, b := range modules.AllBugs() {
		if b.Type == "" || b.Switch == "sbitmap:freed_order" {
			continue
		}
		r := runBug(b, budget, nil)
		if !r.Found {
			continue
		}
		rows = append(rows, HeuristicRow{Bug: b, Rank: r.HintRank})
		dist[r.HintRank]++
	}
	return rows, dist
}

// FormatHeuristic renders the rank distribution.
func FormatHeuristic(rows []HeuristicRow, dist map[int]int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-28s %s\n", "ID", "Switch", "Triggering hint rank")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-28s %d\n", r.Bug.ID, r.Bug.Switch, r.Rank)
	}
	fmt.Fprintf(&sb, "\nrank distribution (paper: 11/19 rank-1, 6/19 rank-2):\n")
	for rank := 1; rank <= 8; rank++ {
		if n := dist[rank]; n > 0 {
			fmt.Fprintf(&sb, "  rank %d: %d bugs\n", rank, n)
		}
	}
	return sb.String()
}

// OFenceRow is one §6.4 comparison row.
type OFenceRow struct {
	Bug      modules.BugInfo
	Detected bool
}

// RunOFence evaluates the static paired-barrier matcher on the 11 new bugs.
func RunOFence() ([]OFenceRow, int) {
	var rows []OFenceRow
	misses := 0
	for _, b := range modules.AllBugs() {
		if b.Table != 3 {
			continue
		}
		det := ofence.Detects(b)
		rows = append(rows, OFenceRow{Bug: b, Detected: det})
		if !det {
			misses++
		}
	}
	return rows, misses
}

// FormatOFence renders the §6.4 comparison.
func FormatOFence(rows []OFenceRow, misses int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-28s %-18s\n", "ID", "Switch", "OFence detects?")
	for _, r := range rows {
		det := "no (outside patterns)"
		if r.Detected {
			det = "yes (unpaired half)"
		}
		fmt.Fprintf(&sb, "%-8s %-28s %-18s\n", r.Bug.ID, r.Bug.Switch, det)
	}
	fmt.Fprintf(&sb, "\n%d of %d new bugs are outside OFence's paired-barrier patterns (paper: 8 of 11)\n",
		misses, len(rows))
	return sb.String()
}
