package model_test

import (
	"reflect"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/diff"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
)

// TestBinaryKeyMatchesFmtOracle checks the binary visited-state key
// against the original fmt-built key: over the named suite plus 500
// generated shapes, under every registered model, both explorations must
// visit the same number of states and permit the same outcomes.
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
