package bench

import (
	"fmt"
	"strings"
	"time"

	"ozz/internal/baseline/inorder"
	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/obs"
)

// ThroughputResult is the §6.3.2 comparison: executed test programs per
// second for the syzkaller-style baseline (plain kernel, sequential
// execution) and for OZZ (instrumented kernel, profiling, hint calculation,
// and the full set of hypothetical-barrier MTI runs per program). The paper
// measures 7.33 vs 0.92 tests/s — a 7.9x drop; the reproducible quantity
// here is the slowdown factor.
type ThroughputResult struct {
	SyzkallerTestsPerSec float64
	OzzTestsPerSec       float64
	Slowdown             float64
	// OzzMTIsPerProgram reports how much extra work each OZZ "test"
	// carries (hypothetical-barrier executions per program).
	OzzMTIsPerProgram float64
	// SyzkallerRecycleRate is the baseline's pooled-kernel reuse rate —
	// now that both sides run on the shared engine, the comparison is
	// apples-to-apples on kernel-lifecycle cost too.
	SyzkallerRecycleRate float64
	// OzzRecycleRate is OZZ's pooled-kernel reuse rate over the same
	// measurement window.
	OzzRecycleRate float64
	// Parallel holds the worker-scaling rows (Pool executor at each
	// requested worker count); empty when only the serial comparison was
	// measured.
	Parallel []ParallelRow
}

// ParallelRow is one workers column of the scaling table: OZZ campaign
// throughput with the Pool executor at the given width.
type ParallelRow struct {
	Workers     int
	TestsPerSec float64
	// Speedup is relative to the 1-worker row.
	Speedup float64
}

// MeasureThroughputWorkers runs both fuzzers for (at least) the given
// wall-clock budget per side and reports programs/second. For each entry
// of workers it then runs a Pool campaign for the budget and records
// tests/s, so the §6.3.2 table can report throughput at 1, 2, 4, … N
// workers; nil workers gives the serial comparison only.
//
// Both sides of the comparison publish into one registry: the
// instrumented one (see Instrument), or a fresh one. Each side's recycle
// rate is the change in ozz_kernel_acquires_total over its own
// measurement window, so it counts that side's kernels only.
func MeasureThroughputWorkers(budget time.Duration, mods []string, bugs modules.BugSet, workers []int) ThroughputResult {
	reg, ev := instrumented()
	if reg == nil {
		reg = obs.NewRegistry()
	}

	// Baseline: syzkaller-style sequential fuzzing on the plain kernel.
	sz := inorder.NewSyzkallerObs(mods, bugs, 1, reg)
	acquires := reg.CounterVec("ozz_kernel_acquires_total", "", "source")
	recycled, built := acquires.With("recycled"), acquires.With("built")
	window := func(run func()) (elapsed time.Duration, recycleRate float64) {
		r0, b0 := recycled.Value(), built.Value()
		start := time.Now()
		run()
		elapsed = time.Since(start)
		if r, b := recycled.Value()-r0, built.Value()-b0; r+b > 0 {
			recycleRate = float64(r) / float64(r+b)
		}
		return elapsed, recycleRate
	}
	szTime, szRecycle := window(func() {
		for start := time.Now(); time.Since(start) < budget; {
			for i := 0; i < 8; i++ {
				sz.Step()
			}
		}
	})
	szRate := float64(sz.Execs) / szTime.Seconds()

	// OZZ: the full pipeline (STI + profile + hints + MTIs) on one worker.
	ozz := core.NewPool(core.Config{Modules: mods, Bugs: bugs, Seed: 1, UseSeeds: true, Obs: reg, Events: ev}, 1)
	ozzTime, ozzRecycle := window(func() { ozz.RunFor(budget) })
	st := ozz.Stats()
	ozzRate := float64(st.Steps) / ozzTime.Seconds()

	res := ThroughputResult{
		SyzkallerTestsPerSec: szRate,
		OzzTestsPerSec:       ozzRate,
		SyzkallerRecycleRate: szRecycle,
		OzzRecycleRate:       ozzRecycle,
	}
	if ozzRate > 0 {
		res.Slowdown = szRate / ozzRate
	}
	if st.Steps > 0 {
		res.OzzMTIsPerProgram = float64(st.MTIs) / float64(st.Steps)
	}

	// Worker-scaling rows: same campaign Config through the Pool executor.
	var base float64
	for _, w := range workers {
		p := core.NewPool(campaignConfig(core.Config{Modules: mods, Bugs: bugs, Seed: 1, UseSeeds: true}), w)
		start := time.Now()
		p.RunFor(budget)
		row := ParallelRow{Workers: p.Workers, TestsPerSec: float64(p.Stats().Steps) / time.Since(start).Seconds()}
		if base == 0 {
			base = row.TestsPerSec
		}
		if base > 0 {
			row.Speedup = row.TestsPerSec / base
		}
		res.Parallel = append(res.Parallel, row)
	}
	return res
}

// Format renders the §6.3.2 comparison, with one row per measured worker
// count when a scaling sweep was run.
func (r ThroughputResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb,
		"syzkaller baseline: %8.1f tests/s  (kernel-pool %.0f%% recycled)\n"+
			"OZZ:                %8.1f tests/s  (%.1fx slower; %.1f hypothetical-barrier runs per program; kernel-pool %.0f%% recycled)\n",
		r.SyzkallerTestsPerSec, 100*r.SyzkallerRecycleRate,
		r.OzzTestsPerSec, r.Slowdown, r.OzzMTIsPerProgram, 100*r.OzzRecycleRate)
	for _, row := range r.Parallel {
		fmt.Fprintf(&sb, "OZZ (%2d workers):   %8.1f tests/s  (%.2fx vs 1 worker)\n",
			row.Workers, row.TestsPerSec, row.Speedup)
	}
	return sb.String()
}
