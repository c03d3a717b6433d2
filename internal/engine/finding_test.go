package engine

import (
	"slices"
	"testing"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/trace"
)

// TestFindingReproduced: a crash finding is reproduced by a crash with
// its title, a soft finding by a soft report of its title, and a crash
// and a soft report with the same title are never mixed up.
func TestFindingReproduced(t *testing.T) {
	const title, other = "BUG: unable to handle kernel NULL pointer dereference in f", "KASAN: other"
	crash := Finding{Title: title}
	soft := Finding{Title: title, Soft: true}
	crashed := func(title string) *Result { return &Result{Crash: &kernel.Crash{Title: title}} }
	reported := func(titles ...string) *Result { return &Result{Soft: titles} }
	cases := []struct {
		name string
		f    Finding
		res  *Result
		want bool
	}{
		{"crash with the title", crash, crashed(title), true},
		{"crash with another title", crash, crashed(other), false},
		{"clean run, crash finding", crash, &Result{}, false},
		{"soft report of the title, crash finding", crash, reported(title), false},
		{"soft report of the title", soft, reported(other, title), true},
		{"soft report of another title", soft, reported(other), false},
		{"clean run, soft finding", soft, &Result{}, false},
		{"crash with the title, soft finding", soft, crashed(title), false},
	}
	for _, c := range cases {
		if got := c.f.Reproduced(c.res); got != c.want {
			t.Errorf("%s: Reproduced = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFindingRequest: the hint's own sites give the finding's own hint,
// no sites give the triage run's hint with an empty reorder set, and
// neither changes the finding's hint.
func TestFindingRequest(t *testing.T) {
	h := &hints.Hint{Test: hints.StoreBarrierTest, Sched: 102, SchedOcc: 1, Reorder: []trace.InstrID{100, 101}}
	out := new(Result)
	f := Finding{I: 1, J: 2, Hint: h, Title: "t"}
	req := f.Request(h.Reorder, out)
	if req.Hint != h || req.I != 1 || req.J != 2 || req.Out != out {
		t.Fatalf("own sites: request %+v, want the finding's hint, pair and result", req)
	}
	for _, sites := range [][]trace.InstrID{nil, {101}} {
		req := f.Request(sites, nil)
		if req.Hint == h || !slices.Equal(req.Hint.Reorder, sites) || req.Hint.Sched != h.Sched || req.Out != nil {
			t.Fatalf("sites %v: request hint %+v", sites, req.Hint)
		}
	}
	if !slices.Equal(h.Reorder, []trace.InstrID{100, 101}) {
		t.Fatalf("finding's hint changed: %v", h.Reorder)
	}
}
