package repair

import (
	"fmt"

	"ozz/internal/lkmm"
)

// litmusLabels builds per-op display labels for a raw litmus test:
// "P0:W(x1)" for stores, "P1:R(x0)" for loads, "P0:smp_wmb" for barriers.
func litmusLabels(t *lkmm.Test) [][]string {
	labels := make([][]string, len(t.Threads))
	for ti, ops := range t.Threads {
		labels[ti] = make([]string, len(ops))
		for i, op := range ops {
			switch op.Kind {
			case lkmm.OpStore:
				labels[ti][i] = fmt.Sprintf("P%d:W(x%d)", ti, op.Loc)
			case lkmm.OpLoad:
				labels[ti][i] = fmt.Sprintf("P%d:R(x%d)", ti, op.Loc)
			default:
				labels[ti][i] = fmt.Sprintf("P%d:%s", ti, op.Bar)
			}
		}
	}
	return labels
}

// Litmus searches for the minimal fence repair of a raw litmus test: the
// buggy outcomes are the test's weak-only behaviours under the primary
// model, and the reference model's legality verdict decides alone — a
// litmus test has no in-vivo run to close. OEMU, the emulator campaigns
// execute in vivo, reaches exactly the reference model's outcomes on
// every repaired suite test legality passes
// (TestLitmusRepairAgreesWithOEMU), so asking it again would repeat the
// verdict. Fences may be placed on any thread.
func Litmus(test *lkmm.Test, opts Options) *Result {
	p := newProblem(test, litmusLabels(test), opts, -1)
	return p.run(test.Name, "litmus")
}
