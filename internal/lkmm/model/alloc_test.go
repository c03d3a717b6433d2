package model_test

import (
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
)

// TestRunModelAllocsIndependentOfStates checks that exploration allocates
// per call, not per state: the named suite shapes with the fewest and the
// most visited states must differ in allocation count by far less than
// they differ in States. Cloning every successor and keying every new
// state with a fresh string would make the allocations track the states.
func TestRunModelAllocsIndependentOfStates(t *testing.T) {
	var small, large *lkmm.Test
	var smallStates, largeStates int
	for _, e := range lkmm.Suite() {
		n := model.RunModel(e.Test, memmodel.LKMM).States
		if small == nil || n < smallStates {
			small, smallStates = e.Test, n
		}
		if large == nil || n > largeStates {
			large, largeStates = e.Test, n
		}
	}
	allocs := func(test *lkmm.Test) float64 {
		return testing.AllocsPerRun(20, func() { model.RunModel(test, memmodel.LKMM) })
	}
	smallAllocs, largeAllocs := allocs(small), allocs(large)
	t.Logf("%s: %d states, %.0f allocs; %s: %d states, %.0f allocs",
		small.Name, smallStates, smallAllocs, large.Name, largeStates, largeAllocs)
	if 4*(largeAllocs-smallAllocs) > float64(largeStates-smallStates) {
		t.Errorf("allocations grow with states: %s (%d states) %.0f allocs, %s (%d states) %.0f allocs",
			small.Name, smallStates, smallAllocs, large.Name, largeStates, largeAllocs)
	}
}
