package diff

import (
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
)

// FuzzDifferential lets the native fuzzer drive the generator's (seed,
// index) space AND the memory-model choice: every reachable shape must
// agree between OEMU and the reference enumerator under every model, and
// each layer's goal-directed search must agree with its enumerator. The
// model is picked from the index's high bits so one fuzz target covers
// lkmm, tso, and armv8, and the (shape, model) pair is fully determined
// by the two integers — coverage-guided mutation explores generator
// corner cases (thread-count and op-mix boundaries) far faster than a
// linear sweep.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1), uint(0))
	f.Add(uint64(0xdeadbeef), uint(7))
	f.Add(uint64(0), uint(1023))
	f.Add(uint64(42), uint(4096+17))   // tso region
	f.Add(uint64(42), uint(2*4096+17)) // armv8 region
	f.Fuzz(func(t *testing.T, seed uint64, index uint) {
		models := memmodel.All()
		mm := models[int(index/4096)%len(models)]
		shape := Shape(seed, int(index%4096))
		checkReaches(t, shape, mm)
		checkLitmusReaches(t, shape, mm)
		d := CompareModel(shape, mm)
		if d == nil {
			return
		}
		shrunk := Shrink(shape, func(c *lkmm.Test) bool { return CompareModel(c, mm) != nil })
		t.Fatalf("model %s: %s\nshrunk: %s", mm.Name(), d, CompareModel(shrunk, mm))
	})
}

// checkReaches checks model.Reacher.Reaches against model.RunModel on one
// shape: each enumerated outcome is reachable on its own, and a register
// vector of values no store writes is not.
func checkReaches(t *testing.T, shape *lkmm.Test, mm *memmodel.Table) {
	var r model.Reacher
	for o := range model.RunModel(shape, mm).Outcomes {
		if !r.Reaches(shape, mm, [][]uint64{o.Regs()}) {
			t.Fatalf("model %s: %s reaches %s by enumeration but not by Reaches\n%s", mm.Name(), shape.Name, o, Format(shape))
		}
	}
	if shape.NumRegs == 0 {
		return
	}
	none := make([]uint64, shape.NumRegs)
	for i := range none {
		none[i] = 99
	}
	if r.Reaches(shape, mm, [][]uint64{none}) {
		t.Fatalf("model %s: %s reaches the unwritten %v\n%s", mm.Name(), shape.Name, none, Format(shape))
	}
}

// checkLitmusReaches checks lkmm.Reacher.Reaches against lkmm.RunModel on
// one shape the same way: each OEMU outcome is reachable on its own, and a
// register vector of values no store writes is not.
func checkLitmusReaches(t *testing.T, shape *lkmm.Test, mm *memmodel.Table) {
	var r lkmm.Reacher
	for o := range lkmm.RunModel(shape, mm).Outcomes {
		if !r.Reaches(shape, mm, [][]uint64{o.Regs()}) {
			t.Fatalf("model %s: %s reaches %s under OEMU by enumeration but not by Reaches\n%s", mm.Name(), shape.Name, o, Format(shape))
		}
	}
	if shape.NumRegs == 0 {
		return
	}
	none := make([]uint64, shape.NumRegs)
	for i := range none {
		none[i] = 99
	}
	if r.Reaches(shape, mm, [][]uint64{none}) {
		t.Fatalf("model %s: %s reaches the unwritten %v under OEMU\n%s", mm.Name(), shape.Name, none, Format(shape))
	}
}
