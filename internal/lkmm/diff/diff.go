// Package diff is the differential correctness harness for OEMU: it
// cross-checks the outcomes internal/lkmm observes by driving the real
// emulator against the outcomes the executable reference model
// (internal/lkmm/model) permits, on the named litmus suite and on
// property-based-generated random shapes.
//
// The two directions of the §3.3 claim are checked separately so a
// failure names which one broke:
//
//   - Soundness: every outcome OEMU reaches must be permitted by the
//     model (OEMU ⊆ model). A violation means OEMU reordered across a
//     preserved-program-order case or broke per-location coherence.
//   - Completeness: every outcome the model permits must be reachable by
//     OEMU under some (interleaving, directive) combination (model ⊆
//     OEMU). A violation means OEMU lost emulation capability — a weak
//     outcome the fuzzer can no longer produce.
//
// Generation is seeded (splitmix64), so every failure replays
// deterministically from its printed (seed, index) pair, and divergences
// are shrunk to a minimal counterexample before reporting.
package diff

import (
	"fmt"
	"sort"
	"strings"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// Divergence describes an outcome-set mismatch between OEMU and the
// reference model on one litmus shape. A nil *Divergence means the sets
// are identical.
type Divergence struct {
	// Test is the diverging shape.
	Test *lkmm.Test
	// OEMUOnly lists outcomes OEMU reached that the model forbids — a
	// SOUNDNESS violation (sorted).
	OEMUOnly []string
	// ModelOnly lists outcomes the model permits that OEMU cannot reach
	// under any directive assignment — a COMPLETENESS violation (sorted).
	ModelOnly []string
	// OEMURuns and ModelStates report the search sizes, for reports.
	OEMURuns    int
	ModelStates int
}

// String renders the divergence with its direction labels.
func (d *Divergence) String() string {
	if d == nil {
		return "no divergence"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "divergence on %s:", d.Test.Name)
	if len(d.OEMUOnly) > 0 {
		fmt.Fprintf(&b, " SOUNDNESS broken, OEMU reached forbidden %v;", d.OEMUOnly)
	}
	if len(d.ModelOnly) > 0 {
		fmt.Fprintf(&b, " COMPLETENESS broken, OEMU cannot reach %v;", d.ModelOnly)
	}
	fmt.Fprintf(&b, "\n%s", Format(d.Test))
	return b.String()
}

// CompareModel runs the shape through both engines under a memory model
// and returns the divergence, or nil when the outcome sets are identical:
// the emulator runs with the model's semantics table active and is
// checked against its OWN reference enumeration under the same table, so
// soundness and completeness are per-model properties.
func CompareModel(t *lkmm.Test, mm *memmodel.Table) *Divergence {
	emu := lkmm.RunModel(t, mm)
	ref := model.RunModel(t, mm)
	var onlyEmu, onlyRef []string
	for o := range emu.Outcomes {
		if !ref.Has(o) {
			onlyEmu = append(onlyEmu, string(o))
		}
	}
	for o := range ref.Outcomes {
		if !emu.Has(o) {
			onlyRef = append(onlyRef, string(o))
		}
	}
	if len(onlyEmu) == 0 && len(onlyRef) == 0 {
		return nil
	}
	sort.Strings(onlyEmu)
	sort.Strings(onlyRef)
	return &Divergence{
		Test:        t,
		OEMUOnly:    onlyEmu,
		ModelOnly:   onlyRef,
		OEMURuns:    emu.Runs,
		ModelStates: ref.States,
	}
}

// SuiteResult is the differential verdict on one named suite entry.
type SuiteResult struct {
	// Entry is the suite entry replayed.
	Entry lkmm.SuiteEntry
	// OEMU and Model are the sorted outcome sets of the two engines.
	OEMU, Model []string
	// Div is the outcome-set mismatch, nil when the engines agree.
	Div *Divergence
	// VerdictErrs lists violated Allowed/Forbidden expectations, checked
	// against both engines.
	VerdictErrs []string
	// Runs and States are the engines' search sizes, for reports.
	Runs, States int
	// ModelName is the memory model the entry was checked under.
	ModelName string
}

// OK reports whether the entry passed: engines agree and every LKMM
// verdict holds.
func (r *SuiteResult) OK() bool { return r.Div == nil && len(r.VerdictErrs) == 0 }

// CheckSuiteModel replays every named suite shape through both engines
// under a memory model, asserting outcome-set equality and the entry's
// verdicts: both engines run the model's semantics and the verdicts come
// from each entry's per-model resolution (SuiteEntry.VerdictsFor).
func CheckSuiteModel(mm *memmodel.Table) []SuiteResult {
	var out []SuiteResult
	for _, e := range lkmm.Suite() {
		emu := lkmm.RunModel(e.Test, mm)
		ref := model.RunModel(e.Test, mm)
		r := SuiteResult{
			Entry: e, OEMU: emu.Sorted(), Model: ref.Sorted(),
			Runs: emu.Runs, States: ref.States, Div: CompareModel(e.Test, mm),
			ModelName: mm.Name(),
		}
		allowed, forbidden := e.VerdictsFor(mm.Name())
		for _, o := range allowed {
			if !emu.Has(o) {
				r.VerdictErrs = append(r.VerdictErrs, fmt.Sprintf("allowed outcome %s unreachable by OEMU", o))
			}
			if !ref.Has(o) {
				r.VerdictErrs = append(r.VerdictErrs, fmt.Sprintf("allowed outcome %s not permitted by model", o))
			}
		}
		for _, o := range forbidden {
			if emu.Has(o) {
				r.VerdictErrs = append(r.VerdictErrs, fmt.Sprintf("forbidden outcome %s observed by OEMU", o))
			}
			if ref.Has(o) {
				r.VerdictErrs = append(r.VerdictErrs, fmt.Sprintf("forbidden outcome %s permitted by model", o))
			}
		}
		out = append(out, r)
	}
	return out
}

// Format renders a litmus shape as replayable source, one thread per
// line, for divergence reports and shrunk counterexamples.
func Format(t *lkmm.Test) string {
	var b strings.Builder
	fmt.Fprintf(&b, "test %q locs=%d regs=%d\n", t.Name, t.NumLocs, t.NumRegs)
	for ti, th := range t.Threads {
		fmt.Fprintf(&b, "  T%d:", ti)
		if len(th) == 0 {
			b.WriteString(" (empty)")
		}
		for _, op := range th {
			b.WriteString(" " + formatOp(op) + ";")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatOp(op lkmm.Op) string {
	switch op.Kind {
	case lkmm.OpStore:
		name := "W"
		switch op.Atomic {
		case trace.Once:
			name = "Wonce"
		case trace.AtomicRelease:
			name = "Wrel"
		}
		return fmt.Sprintf("%s(x%d,%d)", name, op.Loc, op.Val)
	case lkmm.OpLoad:
		name := "R"
		switch op.Atomic {
		case trace.Once:
			name = "Ronce"
		case trace.AtomicAcquire:
			name = "Racq"
		}
		return fmt.Sprintf("%s(x%d)->r%d", name, op.Loc, op.Reg)
	case lkmm.OpBarrier:
		return op.Bar.String()
	}
	return fmt.Sprintf("op(%d)", op.Kind)
}
