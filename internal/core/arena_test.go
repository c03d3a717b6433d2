package core

import (
	"reflect"
	"strings"
	"testing"

	"ozz/internal/modules"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// crashingSTI crashes the fixed kernel in its third call, after that call
// has profiled a few events; the two calls after it never run.
const crashingSTI = "r0 = gsm_open()\ngsm_activate(r0, 0x3)\ngsm_dlci_config(r0, 0x0, 0xd5)\nr3 = unix_socket()\nunix_bind(r3, 0x13)\n"

// TestSTIArenaMatchesFresh: profiling every module seed program, and one
// that crashes mid-call, in sequence through one reused buffer gives each
// program the result a fresh RunSTI gives it, down to the nil entries past
// the crash and the crashing call's partial profile. Every call's view
// ends at its own capacity, so appending to one cannot overwrite the next,
// and the arena holds only the last run's events.
func TestSTIArenaMatchesFresh(t *testing.T) {
	target := modules.Target()
	var progs []*syzlang.Program
	for _, src := range append(modules.Seeds(), crashingSTI) {
		p, err := target.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		progs = append(progs, p)
	}
	for _, bugs := range []modules.BugSet{nil, allBugSwitches()} {
		env := NewEnv(nil, bugs)
		var arena trace.Buffer
		crashed := 0
		for _, p := range progs {
			got := env.runSTI(p, &arena, nil)
			want := env.RunSTI(p)
			name := strings.ReplaceAll(p.String(), "\n", "; ")
			if !reflect.DeepEqual(outcome(got), outcome(want)) {
				t.Fatalf("%s: arena result differs from a fresh RunSTI\narena: %+v\nfresh: %+v", name, got, want)
			}
			total := 0
			for ci, evs := range got.CallEvents {
				if cap(evs) != len(evs) {
					t.Errorf("%s: call %d view has cap %d, len %d", name, ci, cap(evs), len(evs))
				}
				total += len(evs)
			}
			if arena.Len() != total {
				t.Errorf("%s: arena holds %d events, the run profiled %d", name, arena.Len(), total)
			}
			if got.Crash != nil {
				crashed++
			}
		}
		if crashed == 0 {
			t.Errorf("bugs %v: no program crashed", bugs)
		}
	}

	// The crash: call 2 keeps what it recorded, calls 3 and 4 never ran.
	env := NewEnv(nil, nil)
	var arena trace.Buffer
	env.runSTI(progs[0], &arena, nil) // leave a longer profile behind
	p := progs[len(progs)-1]
	res := env.runSTI(p, &arena, nil)
	if res.Crash == nil {
		t.Fatalf("%q did not crash", crashingSTI)
	}
	if len(res.CallEvents[2]) == 0 {
		t.Error("crashing call lost its partial profile")
	}
	if res.CallEvents[3] != nil || res.CallEvents[4] != nil {
		t.Errorf("calls past the crash have profiles: %v, %v", res.CallEvents[3], res.CallEvents[4])
	}
}

// TestSTIArenaAllocsIndependentOfEvents: a warm-buffer STI allocates per
// run, not per profiled call or event. Programs of 2 and 33 calls into
// the same module must allocate the same to within two, however many
// more events the long one profiles; copying each call's profile out of
// the buffer would add one allocation per call.
func TestSTIArenaAllocsIndependentOfEvents(t *testing.T) {
	env := NewEnv([]string{"rds"}, nil)
	target := modules.Target("rds")
	measure := func(src string) (events int, allocs float64) {
		p, err := target.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var arena trace.Buffer
		for i := 0; i < 3; i++ {
			env.runSTI(p, &arena, nil)
		}
		allocs = testing.AllocsPerRun(50, func() { env.runSTI(p, &arena, nil) })
		return arena.Len(), allocs
	}
	smallEvents, smallAllocs := measure("r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\n")
	largeEvents, largeAllocs := measure("r0 = rds_socket()\n" + strings.Repeat("rds_sendmsg(r0, 0x4)\nrds_loop_xmit(r0)\n", 16))
	t.Logf("2 calls: %d events, %.0f allocs; 33 calls: %d events, %.0f allocs",
		smallEvents, smallAllocs, largeEvents, largeAllocs)
	if largeEvents < 8*smallEvents {
		t.Fatalf("long program profiled %d events, short %d: not enough spread", largeEvents, smallEvents)
	}
	if largeAllocs > smallAllocs+2 {
		t.Errorf("allocations grow with profiled calls: %.0f allocs for %d events, %.0f for %d",
			largeAllocs, largeEvents, smallAllocs, smallEvents)
	}
}
