package model_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/diff"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
)

// TestBinaryKeyMatchesFmtOracle checks the visited-state key — a state's
// raw bytes — against a fmt-built key of its live fields: over the named
// suite plus 500 generated shapes, under every registered model, both
// explorations must visit the same number of states and permit the same
// outcomes. A transition that left a stale byte past a history or
// store-buffer length would split one state into two here.
func TestBinaryKeyMatchesFmtOracle(t *testing.T) {
	var tests []*lkmm.Test
	for _, e := range lkmm.Suite() {
		tests = append(tests, e.Test)
	}
	for i := 0; i < 500; i++ {
		tests = append(tests, diff.Shape(1, i))
	}
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		mm, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range tests {
			got, want := model.RunModel(test, mm), model.RunModelFmtKey(test, mm)
			if got.States != want.States {
				t.Errorf("%s/%s: States = %d, fmt oracle %d", name, test.Name, got.States, want.States)
			}
			if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
				t.Errorf("%s/%s: outcomes = %v, fmt oracle %v", name, test.Name, got.Sorted(), want.Sorted())
			}
		}
	}
}

// TestReacherRunModelReuse runs RunModel on one Reacher over the named
// suite plus 500 generated shapes under lkmm, tso and armv8, in a shuffled
// order that mixes shapes of every size and every model, with two Reaches
// calls between runs — one that misses and one that finds its target:
// each result's States and Outcomes must equal a fresh RunModel's, so
// nothing a call leaves in the Reacher's storage, its found flag
// included, reaches the next.
func TestReacherRunModelReuse(t *testing.T) {
	type job struct {
		test *lkmm.Test
		mm   *memmodel.Table
	}
	var jobs []job
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		mm, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range lkmm.Suite() {
			jobs = append(jobs, job{e.Test, mm})
		}
		for i := 0; i < 500; i++ {
			jobs = append(jobs, job{diff.Shape(1, i), mm})
		}
	}
	rand.New(rand.NewPCG(3, 4)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	var r model.Reacher
	for i, j := range jobs {
		got, want := r.RunModel(j.test, j.mm), model.RunModel(j.test, j.mm)
		if got.States != want.States || !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
			t.Fatalf("job %d, %s/%s: reused Reacher gives %d states %v, fresh RunModel %d states %v",
				i, j.mm.Name(), j.test.Name, got.States, got.Sorted(), want.States, want.Sorted())
		}
		// A goal-directed search in between, for an all-99 register file
		// no shape reaches.
		miss := make([]uint64, j.test.NumRegs)
		for k := range miss {
			miss[k] = 99
		}
		if j.test.NumRegs > 0 && r.Reaches(j.test, j.mm, [][]uint64{miss}) {
			t.Fatalf("job %d, %s/%s: Reaches finds the all-99 register file", i, j.mm.Name(), j.test.Name)
		}
		// And one for an outcome the shape reaches, which ends its search
		// early; the next RunModel must still explore in full.
		hit := lkmm.Outcome(want.Sorted()[0])
		if !r.Reaches(j.test, j.mm, [][]uint64{hit.Regs()}) {
			t.Fatalf("job %d, %s/%s: Reaches misses the permitted %s", i, j.mm.Name(), j.test.Name, hit)
		}
	}
}
