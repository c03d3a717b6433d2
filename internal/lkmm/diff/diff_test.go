package diff

import (
	"reflect"
	"strings"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
)

// TestSuiteDifferential is the core tentpole check: every named suite
// shape must produce the EXACT same outcome set in OEMU and in the
// reference model, and satisfy its LKMM verdicts in both.
func TestSuiteDifferential(t *testing.T) {
	for _, r := range CheckSuiteModel(memmodel.LKMM) {
		if r.Div != nil {
			t.Errorf("%s: %s", r.Entry.Test.Name, r.Div)
		}
		for _, e := range r.VerdictErrs {
			t.Errorf("%s: %s", r.Entry.Test.Name, e)
		}
		if !reflect.DeepEqual(r.OEMU, r.Model) {
			t.Errorf("%s: outcome sets differ: OEMU=%v model=%v",
				r.Entry.Test.Name, r.OEMU, r.Model)
		}
	}
}

// TestCrossCheckShapes runs the property-based sweep: several hundred
// generated shapes, each compared for exact outcome-set equality.
func TestCrossCheckShapes(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	for _, f := range CrossCheckModel(1, n, memmodel.LKMM) {
		t.Errorf("%s", f.String())
	}
}

// TestShapeDeterminism: generation is a pure function of (seed, index),
// and adjacent indices produce distinct shapes (no stream aliasing).
func TestShapeDeterminism(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := Shape(42, i), Shape(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Shape(42,%d) not deterministic:\n%s\n%s", i, Format(a), Format(b))
		}
	}
	if reflect.DeepEqual(Shape(42, 0).Threads, Shape(42, 1).Threads) &&
		reflect.DeepEqual(Shape(42, 1).Threads, Shape(42, 2).Threads) {
		t.Fatal("consecutive indices generated identical shapes: streams correlated")
	}
}

func countOps(t *lkmm.Test) int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// TestGeneratorBounds: shapes stay inside the documented envelope so
// lkmm.Run's directive-mask enumeration never trips its site limit.
func TestGeneratorBounds(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := Shape(7, i)
		if nt := len(s.Threads); nt < 2 || nt > 3 {
			t.Fatalf("shape %d has %d threads", i, nt)
		}
		if n := countOps(s); n < 2 || n > MaxGenOps {
			t.Fatalf("shape %d has %d ops", i, n)
		}
		for _, th := range s.Threads {
			if len(th) == 0 {
				t.Fatalf("shape %d has an empty thread:\n%s", i, Format(s))
			}
		}
	}
}

// TestShrink: the greedy shrinker reaches a minimal shape for a simple
// structural predicate (at least one store and one load present), which
// has 2-op minima.
func TestShrink(t *testing.T) {
	orig := &lkmm.Test{Name: "shrinkme", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.Mb(), lkmm.W(1, 2)},
		{lkmm.R(1, 0), lkmm.Rmb(), lkmm.R(0, 1)},
		{lkmm.Wmb()},
	}, NumLocs: 2, NumRegs: 2}
	pred := func(c *lkmm.Test) bool {
		var st, ld bool
		for _, th := range c.Threads {
			for _, op := range th {
				st = st || op.Kind == lkmm.OpStore
				ld = ld || op.Kind == lkmm.OpLoad
			}
		}
		return st && ld
	}
	got := Shrink(orig, pred)
	if !pred(got) {
		t.Fatalf("shrunk shape no longer satisfies the predicate:\n%s", Format(got))
	}
	if n := countOps(got); n != 2 {
		t.Fatalf("shrunk shape has %d ops, want the 2-op minimum:\n%s", n, Format(got))
	}
	// The input must be untouched.
	if countOps(orig) != 7 || len(orig.Threads) != 3 {
		t.Fatal("Shrink mutated its input")
	}
}

// TestDivergenceDirections: the report names which direction broke.
func TestDivergenceDirections(t *testing.T) {
	shape := Shape(1, 0)
	unsound := &Divergence{Test: shape, OEMUOnly: []string{"r0=9"}}
	if s := unsound.String(); !strings.Contains(s, "SOUNDNESS") || strings.Contains(s, "COMPLETENESS") {
		t.Fatalf("wrong direction label: %s", s)
	}
	incomplete := &Divergence{Test: shape, ModelOnly: []string{"r0=9"}}
	if s := incomplete.String(); !strings.Contains(s, "COMPLETENESS") || strings.Contains(s, "SOUNDNESS") {
		t.Fatalf("wrong direction label: %s", s)
	}
}

// TestFormat: the rendering names every op variant it may meet.
func TestFormat(t *testing.T) {
	shape := &lkmm.Test{Name: "fmt", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.WOnce(0, 2), lkmm.WRel(1, 3)},
		{lkmm.R(0, 0), lkmm.ROnce(0, 1), lkmm.RAcq(1, 2), lkmm.Mb(), lkmm.Rmb(), lkmm.Wmb()},
	}, NumLocs: 2, NumRegs: 3}
	got := Format(shape)
	for _, want := range []string{
		"W(x0,1)", "Wonce(x0,2)", "Wrel(x1,3)",
		"R(x0)->r0", "Ronce(x0)->r1", "Racq(x1)->r2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Format missing %q:\n%s", want, got)
		}
	}
}
