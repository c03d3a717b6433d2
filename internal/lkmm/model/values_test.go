package model_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/diff"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
)

// relabel maps a stored value to one that shares no byte pattern with it
// beyond its low bits: v<<40 | v. The initial 0 maps to itself.
func relabel(v uint64) uint64 { return v<<40 | v }

// relabelled returns a copy of test whose stores write relabel(Val).
func relabelled(test *lkmm.Test) *lkmm.Test {
	out := *test
	out.Name += "+relabelled"
	out.Threads = make([][]lkmm.Op, len(test.Threads))
	for ti, ops := range test.Threads {
		out.Threads[ti] = make([]lkmm.Op, len(ops))
		for i, op := range ops {
			if op.Kind == lkmm.OpStore {
				op.Val = relabel(op.Val)
			}
			out.Threads[ti][i] = op
		}
	}
	return &out
}

// relabelRegs returns regs with every value relabelled.
func relabelRegs(regs []uint64) []uint64 {
	out := make([]uint64, len(regs))
	for i, v := range regs {
		out[i] = relabel(v)
	}
	return out
}

// TestRelabelledValues checks the value table against what the fmt oracle
// cannot see, since RunModelFmtKey shares the layout and so the interning:
// over the named suite plus 500 generated shapes under lkmm, tso and
// armv8, relabelling every stored value v as v<<40|v must relabel the
// outcome set the same way and leave States alone, and Reaches must
// answer a relabelled target as it answers the original — for every
// permitted outcome and for random register files over the written
// values.
func TestRelabelledValues(t *testing.T) {
	var tests []*lkmm.Test
	for _, e := range lkmm.Suite() {
		tests = append(tests, e.Test)
	}
	for i := 0; i < 500; i++ {
		tests = append(tests, diff.Shape(1, i))
	}
	rng := rand.New(rand.NewPCG(5, 6))
	var orig, rel model.Reacher
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		mm, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range tests {
			rtest := relabelled(test)
			want, got := model.RunModel(test, mm), model.RunModel(rtest, mm)
			mapped := lkmm.NewOutcomeSet()
			var targets [][]uint64
			for o := range want.Outcomes {
				mapped.Add(relabelRegs(o.Regs()))
				targets = append(targets, o.Regs())
			}
			if got.States != want.States || !reflect.DeepEqual(got.Outcomes, mapped.Outcomes) {
				t.Errorf("%s/%s: relabelled run gives %d states %v, want %d states %v",
					name, test.Name, got.States, got.Sorted(), want.States, (&model.Result{Outcomes: mapped.Outcomes}).Sorted())
			}
			written := []uint64{0}
			for _, ops := range test.Threads {
				for _, op := range ops {
					if op.Kind == lkmm.OpStore {
						written = append(written, op.Val)
					}
				}
			}
			for k := 0; k < 4; k++ {
				regs := make([]uint64, test.NumRegs)
				for i := range regs {
					regs[i] = written[rng.IntN(len(written))]
				}
				targets = append(targets, regs)
			}
			for _, tg := range targets {
				o, r := orig.Reaches(test, mm, [][]uint64{tg}), rel.Reaches(rtest, mm, [][]uint64{relabelRegs(tg)})
				if o != r {
					t.Errorf("%s/%s: Reaches(%v) = %v, relabelled %v", name, test.Name, tg, o, r)
				}
			}
		}
	}
}

// TestReachesUnwrittenValue checks that a target holding a value no store
// writes is never reached — no register can hold it — while the other
// targets of the same call are still searched for.
func TestReachesUnwrittenValue(t *testing.T) {
	mp := &lkmm.Test{Name: "MP", Threads: [][]lkmm.Op{
		{lkmm.W(0, 1), lkmm.W(1, 1)},
		{lkmm.R(1, 0), lkmm.R(0, 1)},
	}, NumLocs: 2, NumRegs: 2}
	var r model.Reacher
	for _, tg := range [][]uint64{{7, 0}, {1, 7}, {7, 7}, {1 << 40, 1}} {
		if r.Reaches(mp, memmodel.LKMM, [][]uint64{tg}) {
			t.Errorf("Reaches(%v) = true, but no store writes its value", tg)
		}
	}
	if !r.Reaches(mp, memmodel.LKMM, [][]uint64{{7, 1}, {1, 0}}) {
		t.Error("an unwritten target hides the reachable r0=1;r1=0")
	}
}

// TestLimits checks Fits' limits at their edges: a one-thread test with
// 255 stores — 255 ops, 255 commits, 255 distinct values — explores and
// keeps every value apart, and one store, op or location more panics
// with the limit's name.
func TestLimits(t *testing.T) {
	var writer []lkmm.Op
	for v := uint64(1); v <= 255; v++ {
		writer = append(writer, lkmm.WRel(0, v))
	}
	edge := &lkmm.Test{Name: "255 stores", Threads: [][]lkmm.Op{writer, {lkmm.R(0, 0)}}, NumLocs: 1, NumRegs: 1}
	if !model.Fits(edge) {
		t.Fatal("Fits rejects a test with 255 stores")
	}
	res := model.RunModel(edge, memmodel.LKMM)
	if len(res.Outcomes) != 256 || !res.Has("r0=255") || !res.Has("r0=0") {
		t.Errorf("255 stores: %d outcomes %v, want r0=0..255", len(res.Outcomes), res.Sorted())
	}
	var r model.Reacher
	if !r.Reaches(edge, memmodel.LKMM, [][]uint64{{255}}) || r.Reaches(edge, memmodel.LKMM, [][]uint64{{256}}) {
		t.Error("255 stores: Reaches confuses r0=255 with the unwritten r0=256")
	}

	half := func(from uint64) []lkmm.Op {
		var ops []lkmm.Op
		for v := from; v < from+128; v++ {
			ops = append(ops, lkmm.WRel(0, v))
		}
		return ops
	}
	barriers := make([]lkmm.Op, 256)
	for i := range barriers {
		barriers[i] = lkmm.Mb()
	}
	for _, c := range []struct {
		limit string
		test  *lkmm.Test
	}{
		{"stores", &lkmm.Test{Name: "256 stores", Threads: [][]lkmm.Op{half(1), half(129)}, NumLocs: 1}},
		{"ops in a thread", &lkmm.Test{Name: "256 ops", Threads: [][]lkmm.Op{barriers}, NumLocs: 1}},
		{"locations", &lkmm.Test{Name: "256 locations", Threads: [][]lkmm.Op{{lkmm.W(255, 1)}}, NumLocs: 256}},
	} {
		if model.Fits(c.test) {
			t.Errorf("%s: Fits accepts it", c.test.Name)
		}
		for call, run := range map[string]func(){
			"RunModel": func() { model.RunModel(c.test, memmodel.LKMM) },
			"Reaches":  func() { new(model.Reacher).Reaches(c.test, memmodel.LKMM, [][]uint64{nil}) },
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				run()
				return ""
			}()
			if !strings.Contains(msg, "255 "+c.limit) {
				t.Errorf("%s: %s panics with %q, want the %q limit named", c.test.Name, call, msg, c.limit)
			}
		}
	}
}
