package diff

import (
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
)

// TestSuiteAllModels replays the whole named suite under every registered
// memory model: the emulator must agree with its own reference
// enumeration (soundness + completeness per model), and each entry's
// per-model verdicts (SuiteEntry.VerdictsFor) must hold.
func TestSuiteAllModels(t *testing.T) {
	for _, mm := range memmodel.All() {
		mm := mm
		t.Run(mm.Name(), func(t *testing.T) {
			for _, r := range CheckSuiteModel(mm) {
				if r.OK() {
					continue
				}
				t.Errorf("%s under %s: div=%v verdicts=%v\n  oemu:  %v\n  model: %v",
					r.Entry.Test.Name, mm.Name(), r.Div, r.VerdictErrs, r.OEMU, r.Model)
			}
		})
	}
}

// TestCrossModelDelta pins the litmus shapes whose verdicts split the
// three models — the acceptance shape is MP+wmb+ROnce: forbidden under
// LKMM (Case 6) and TSO (in-order loads), allowed under ARMv8 (a relaxed
// annotated load does not order the dependent load).
func TestCrossModelDelta(t *testing.T) {
	find := func(name string) *lkmm.Test {
		for _, e := range lkmm.Suite() {
			if e.Test.Name == name {
				return e.Test
			}
		}
		t.Fatalf("suite entry %q missing", name)
		return nil
	}
	const stale = lkmm.Outcome("r0=1;r1=0")

	mp6 := find("MP+wmb+ROnce")
	if lkmm.RunModel(mp6, memmodel.LKMM).Has(stale) {
		t.Error("MP+wmb+ROnce: stale observation must be forbidden under LKMM")
	}
	if lkmm.RunModel(mp6, memmodel.TSO).Has(stale) {
		t.Error("MP+wmb+ROnce: stale observation must be forbidden under TSO")
	}
	if !lkmm.RunModel(mp6, memmodel.ARMv8).Has(stale) {
		t.Error("MP+wmb+ROnce: stale observation must be ALLOWED under ARMv8")
	}

	// Barrier-free MP splits TSO from the weak models the other way.
	mp := find("MP (relaxed)")
	if !lkmm.RunModel(mp, memmodel.LKMM).Has(stale) {
		t.Error("MP (relaxed): stale observation must be allowed under LKMM")
	}
	if !lkmm.RunModel(mp, memmodel.ARMv8).Has(stale) {
		t.Error("MP (relaxed): stale observation must be allowed under ARMv8")
	}
	if lkmm.RunModel(mp, memmodel.TSO).Has(stale) {
		t.Error("MP (relaxed): stale observation must be forbidden under TSO")
	}

	// Store buffering stays reachable everywhere — it is the one
	// reordering TSO itself exhibits.
	sb := find("SB (relaxed)")
	const both0 = lkmm.Outcome("r0=0;r1=0")
	for _, mm := range memmodel.All() {
		if !lkmm.RunModel(sb, mm).Has(both0) {
			t.Errorf("SB (relaxed): r0=0;r1=0 must be reachable under %s", mm.Name())
		}
	}
}

// TestCrossCheckAllModels property-checks generated shapes under every
// model (CI runs 500 per model through cmd/litmus; this keeps a smaller
// deterministic sweep in the unit tier).
func TestCrossCheckAllModels(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	for _, mm := range memmodel.All() {
		mm := mm
		t.Run(mm.Name(), func(t *testing.T) {
			for _, f := range CrossCheckModel(1, n, mm) {
				t.Errorf("model %s: %s", mm.Name(), f.String())
			}
		})
	}
}
