package model

import (
	"reflect"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
)

func mp(b0, b1 []lkmm.Op) *lkmm.Test {
	t0 := append([]lkmm.Op{lkmm.W(0, 1)}, b0...)
	t0 = append(t0, lkmm.W(1, 1))
	t1 := append([]lkmm.Op{lkmm.R(1, 0)}, b1...)
	t1 = append(t1, lkmm.R(0, 1))
	return &lkmm.Test{Name: "MP", Threads: [][]lkmm.Op{t0, t1}, NumLocs: 2, NumRegs: 2}
}

// TestMPRelaxed: with no barriers the model permits every combination,
// including the stale observation an in-order machine cannot produce.
func TestMPRelaxed(t *testing.T) {
	res := RunModel(mp(nil, nil), memmodel.LKMM)
	want := []string{"r0=0;r1=0", "r0=0;r1=1", "r0=1;r1=0", "r0=1;r1=1"}
	if got := res.Sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("relaxed MP outcomes = %v, want %v", got, want)
	}
	if res.States == 0 {
		t.Fatal("no states explored")
	}
}

// TestBarrierPPOCases pins the five barrier cases and the two dependency
// cases of §10.1 at the model level, independent of OEMU.
func TestBarrierPPOCases(t *testing.T) {
	cases := []struct {
		name      string
		test      *lkmm.Test
		forbidden lkmm.Outcome
		allowed   []lkmm.Outcome
	}{
		{
			name:      "case1-smp_mb",
			test:      mp([]lkmm.Op{lkmm.Mb()}, []lkmm.Op{lkmm.Mb()}),
			forbidden: "r0=1;r1=0",
		},
		{
			name:      "case2+3-wmb-rmb",
			test:      mp([]lkmm.Op{lkmm.Wmb()}, []lkmm.Op{lkmm.Rmb()}),
			forbidden: "r0=1;r1=0",
		},
		{
			name: "case4+5-release-acquire",
			test: &lkmm.Test{Name: "MP+rel+acq", Threads: [][]lkmm.Op{
				{lkmm.W(0, 1), lkmm.WRel(1, 1)},
				{lkmm.RAcq(1, 0), lkmm.R(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			forbidden: "r0=1;r1=0",
		},
		{
			name: "case6-annotated-load",
			test: &lkmm.Test{Name: "MP+wmb+ROnce", Threads: [][]lkmm.Op{
				{lkmm.W(0, 1), lkmm.Wmb(), lkmm.W(1, 1)},
				{lkmm.ROnce(1, 0), lkmm.R(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			forbidden: "r0=1;r1=0",
		},
		{
			name: "case7-no-load-store-reordering",
			test: &lkmm.Test{Name: "LB", Threads: [][]lkmm.Op{
				{lkmm.R(1, 0), lkmm.W(0, 1)},
				{lkmm.R(0, 1), lkmm.W(1, 1)},
			}, NumLocs: 2, NumRegs: 2},
			forbidden: "r0=1;r1=1",
		},
		{
			name:    "wmb-only-still-weak",
			test:    mp([]lkmm.Op{lkmm.Wmb()}, nil),
			allowed: []lkmm.Outcome{"r0=1;r1=0"},
		},
		{
			name: "SB-relaxed-both-zero",
			test: &lkmm.Test{Name: "SB", Threads: [][]lkmm.Op{
				{lkmm.WOnce(0, 1), lkmm.ROnce(1, 0)},
				{lkmm.WOnce(1, 1), lkmm.ROnce(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			allowed: []lkmm.Outcome{"r0=0;r1=0"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := RunModel(tc.test, memmodel.LKMM)
			if tc.forbidden != "" && res.Has(tc.forbidden) {
				t.Errorf("forbidden outcome %s permitted; got %v", tc.forbidden, res.Sorted())
			}
			for _, o := range tc.allowed {
				if !res.Has(o) {
					t.Errorf("allowed outcome %s unreachable; got %v", o, res.Sorted())
				}
			}
		})
	}
}

// TestCoherence pins the SC-per-location axioms.
func TestCoherence(t *testing.T) {
	// CoRR: new-then-old on one location is forbidden.
	corr := &lkmm.Test{Name: "CoRR", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1)},
		{lkmm.R(0, 0), lkmm.R(0, 1)},
	}, NumLocs: 1, NumRegs: 2}
	if res := RunModel(corr, memmodel.LKMM); res.Has("r0=1;r1=0") {
		t.Errorf("CoRR violated: %v", res.Sorted())
	}
	// CoWW: a reader can never observe the second store before the first.
	coww := &lkmm.Test{Name: "CoWW", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.W(0, 2)},
		{lkmm.R(0, 0), lkmm.R(0, 1)},
	}, NumLocs: 1, NumRegs: 2}
	if res := RunModel(coww, memmodel.LKMM); res.Has("r0=2;r1=1") {
		t.Errorf("CoWW violated: %v", res.Sorted())
	}
	// CoWR: a thread always sees its own store.
	cowr := &lkmm.Test{Name: "CoWR", Threads: [][]lkmm.Op{
		{lkmm.W(0, 5), lkmm.R(0, 0)},
	}, NumLocs: 1, NumRegs: 1}
	res := RunModel(cowr, memmodel.LKMM)
	if res.Has("r0=0") || !res.Has("r0=5") {
		t.Errorf("CoWR violated: %v", res.Sorted())
	}
}

// TestDeterminism: two explorations of one shape agree exactly.
func TestDeterminism(t *testing.T) {
	a, b := RunModel(mp(nil, nil), memmodel.LKMM), RunModel(mp(nil, nil), memmodel.LKMM)
	if a.States != b.States || !reflect.DeepEqual(a.Sorted(), b.Sorted()) {
		t.Fatalf("nondeterministic exploration: %d/%v vs %d/%v",
			a.States, a.Sorted(), b.States, b.Sorted())
	}
}

// TestSuiteVerdicts replays every named suite entry through the model
// alone: the LKMM verdicts must hold before OEMU is even consulted.
func TestSuiteVerdicts(t *testing.T) {
	for _, e := range lkmm.Suite() {
		res := RunModel(e.Test, memmodel.LKMM)
		for _, o := range e.Allowed {
			if !res.Has(o) {
				t.Errorf("%s: allowed outcome %s unreachable in model; got %v",
					e.Test.Name, o, res.Sorted())
			}
		}
		for _, o := range e.Forbidden {
			if res.Has(o) {
				t.Errorf("%s: forbidden outcome %s permitted by model; got %v",
					e.Test.Name, o, res.Sorted())
			}
		}
	}
}

// TestSuiteCoversAllPPOCases: the named suite must pin all 7 preserved-
// program-order cases of §10.1.
func TestSuiteCoversAllPPOCases(t *testing.T) {
	cov := make(map[int]bool)
	for _, e := range lkmm.Suite() {
		for _, c := range e.Cases {
			cov[c] = true
		}
	}
	for c := 1; c <= 7; c++ {
		if !cov[c] {
			t.Errorf("suite covers no shape for PPO case %d", c)
		}
	}
}

// resultSink keeps benchmarked results live.
var resultSink *Result

// BenchmarkRunModel explores every named suite shape once per iteration,
// under each registered memory model.
func BenchmarkRunModel(b *testing.B) {
	suite := lkmm.Suite()
	for _, mm := range memmodel.All() {
		b.Run(mm.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range suite {
					resultSink = RunModel(e.Test, mm)
				}
			}
		})
	}
}
