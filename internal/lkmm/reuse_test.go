package lkmm_test

import (
	"reflect"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/diff"
	"ozz/internal/memmodel"
)

// TestReusedExecutorMatchesFresh checks the executor that recycles one
// memory, emulator and thread slice across an enumeration's interleavings
// against executions on freshly built ones: over the named suite plus 200
// generated shapes, under every registered model, RunModel must return
// the oracle's outcomes from as many runs.
func TestReusedExecutorMatchesFresh(t *testing.T) {
	var tests []*lkmm.Test
	for _, e := range lkmm.Suite() {
		tests = append(tests, e.Test)
	}
	for i := 0; i < 200; i++ {
		tests = append(tests, diff.Shape(1, i))
	}
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		mm, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range tests {
			got, want := lkmm.RunModel(test, mm), lkmm.RunModelFresh(test, mm)
			if got.Runs != want.Runs {
				t.Errorf("%s/%s: Runs = %d, fresh oracle %d", name, test.Name, got.Runs, want.Runs)
			}
			if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
				t.Errorf("%s/%s: outcomes = %v, fresh oracle %v", name, test.Name, got.Sorted(), want.Sorted())
			}
		}
	}
}
