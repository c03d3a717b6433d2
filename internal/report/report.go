// Package report defines OZZ's bug reports (§4.4: the crash title, the
// hypothetical memory barrier location, and the reordered accesses that
// triggered the bug) and deduplication.
package report

import (
	"fmt"
	"sort"
	"strings"
)

// Report is one deduplicated finding.
type Report struct {
	// Title is the crash title (dedup key), syzkaller-style.
	Title string
	// Oracle names the detector that fired.
	Oracle string
	// OOO reports whether the crash manifested under a reordering test
	// (i.e. is an out-of-order bug candidate) rather than during plain
	// sequential execution.
	OOO bool
	// Type is the reordering type when OOO: "S-S", "S-L", or "L-L".
	Type string
	// HypBarrier describes where the hypothetical (missing) memory
	// barrier would go — the fix location hint for developers.
	HypBarrier string
	// ReorderedSites lists the instruction sites whose accesses were
	// reordered when the bug fired.
	ReorderedSites []string
	// Program is the serialized input that triggered the crash.
	Program string
	// Pair names the two concurrently-executed calls.
	Pair [2]string
	// HintRank is the 1-based rank (by the §4.3 search heuristic) of the
	// scheduling hint that triggered the bug.
	HintRank int
	// Tests is the number of multi-threaded test executions run before
	// the bug fired (the Table 4 "# of tests" column).
	Tests int
	// Models lists the memory-model names under which the cross-model
	// probe reproduced the reordering (sorted; empty when the probe did
	// not run). A strict subset of the registered models means the bug
	// is architecture-dependent — e.g. reachable under lkmm and armv8
	// but not under tso's FIFO store buffer.
	Models []string
	// SuggestedFix holds the fence-repair search's ranked patch
	// suggestions ("insert smp_wmb between A and B [...]"), one line per
	// validated candidate; empty when repair is disabled or found
	// nothing.
	SuggestedFix []string
}

// String renders the report in a syzkaller-dashboard-like block.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	fmt.Fprintf(&sb, "  oracle:   %s\n", r.Oracle)
	if r.OOO {
		fmt.Fprintf(&sb, "  reorder:  %s\n", r.Type)
		if len(r.ReorderedSites) > 0 {
			fmt.Fprintf(&sb, "  reordered accesses:\n")
			for _, s := range r.ReorderedSites {
				fmt.Fprintf(&sb, "    - %s\n", s)
			}
		}
		fmt.Fprintf(&sb, "  pair:     %s <-> %s\n", r.Pair[0], r.Pair[1])
		fmt.Fprintf(&sb, "  diagnosis:\n")
		fmt.Fprintf(&sb, "    barrier:   missing at %s\n", r.HypBarrier)
		fmt.Fprintf(&sb, "    hint rank: %d (after %d tests)\n", r.HintRank, r.Tests)
		if len(r.Models) > 0 {
			fmt.Fprintf(&sb, "    reorders under: %s\n", strings.Join(r.Models, ", "))
		}
		if len(r.SuggestedFix) > 0 {
			fmt.Fprintf(&sb, "    suggested fix:\n")
			for _, line := range r.SuggestedFix {
				fmt.Fprintf(&sb, "      - %s\n", line)
			}
		}
	}
	if r.Program != "" {
		fmt.Fprintf(&sb, "  program:\n")
		for _, line := range strings.Split(strings.TrimRight(r.Program, "\n"), "\n") {
			fmt.Fprintf(&sb, "    %s\n", line)
		}
	}
	return sb.String()
}

// Set deduplicates reports by title, keeping the first (which, with the
// sorted hint order, is the one found with the fewest tests).
type Set struct {
	byTitle map[string]*Report
	order   []string
}

// NewSet returns an empty report set.
func NewSet() *Set {
	return &Set{byTitle: make(map[string]*Report)}
}

// Add inserts the report unless its title is already known; it returns true
// when the report is new.
func (s *Set) Add(r *Report) bool {
	if _, dup := s.byTitle[r.Title]; dup {
		return false
	}
	s.byTitle[r.Title] = r
	s.order = append(s.order, r.Title)
	return true
}

// Merge inserts every report of other whose title s does not yet know,
// walking other in its first-seen order so the merged set's discovery
// order is s's order followed by other's genuinely new titles. It returns
// the number of reports added. Merging is how a manager folds worker
// report sets into the global deduplicated view; Merge(s) is a no-op and
// merging the same set twice adds nothing.
func (s *Set) Merge(other *Set) (added int) {
	if other == nil || other == s {
		return 0
	}
	for _, t := range other.order {
		if s.Add(other.byTitle[t]) {
			added++
		}
	}
	return added
}

// Get returns the report with the given title, or nil.
func (s *Set) Get(title string) *Report { return s.byTitle[title] }

// Len returns the number of unique reports.
func (s *Set) Len() int { return len(s.order) }

// All returns the reports in discovery order.
func (s *Set) All() []*Report {
	out := make([]*Report, 0, len(s.order))
	for _, t := range s.order {
		out = append(out, s.byTitle[t])
	}
	return out
}

// Titles returns the sorted unique titles.
func (s *Set) Titles() []string {
	out := append([]string(nil), s.order...)
	sort.Strings(out)
	return out
}
