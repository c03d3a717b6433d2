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
// model, legality searches the reference model, and closure asks OEMU —
// the same emulator campaigns execute in vivo — whether some run of the
// repaired test still ends in a buggy outcome (lkmm.Reacher.Reaches).
// Fences may be placed on any thread. Repaired tests with more than
// lkmm.MaxDirectiveSites directive sites skip the closure layer and
// validate on legality alone.
func Litmus(test *lkmm.Test, opts Options) *Result {
	p := newProblem(test, litmusLabels(test), opts, -1)
	return p.run(test.Name, "litmus")
}
