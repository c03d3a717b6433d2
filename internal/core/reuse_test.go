package core

import (
	"runtime"
	"testing"
	"unsafe"

	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// overlaps reports whether the backing arrays of a and b, up to their
// capacities, share memory.
func overlaps[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(*new(T))
	as := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	bs := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return as < bs+uintptr(cap(b))*size && bs < as+uintptr(cap(a))*size
}

// sharesStorage reports whether q shares Calls or Args storage with buf,
// counting the calls buf keeps past its length.
func sharesStorage(q, buf *syzlang.Program) bool {
	if overlaps(q.Calls, buf.Calls) {
		return true
	}
	for _, qc := range q.Calls {
		for _, bc := range buf.Calls[:cap(buf.Calls)] {
			if overlaps(qc.Args, bc.Args) {
				return true
			}
		}
	}
	return false
}

// TestCorpusIsolatedFromSlots: the corpus keeps copies of the programs
// it admits. Every corpus program's Key is unchanged after more batches
// rewrite the slot buffers, and no corpus program shares Calls or Args
// storage with a slot buffer.
func TestCorpusIsolatedFromSlots(t *testing.T) {
	p := NewPool(Config{Seed: 11, Bugs: table34Switches()}, 2)
	p.Run(8 * batchSize)
	keys := make([]string, len(p.corpus))
	for i, q := range p.corpus {
		keys[i] = q.Key()
	}
	if len(keys) == 0 {
		t.Fatal("empty corpus: the test checks nothing")
	}
	p.Run(24 * batchSize)
	mutated := 0
	for i := range p.progs {
		if len(p.progs[i].Calls) > 0 {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("no slot buffer holds a program: the test checks nothing")
	}
	for i, q := range p.corpus {
		if i < len(keys) && q.Key() != keys[i] {
			t.Errorf("corpus program %d changed after more batches:\n%s\nwas\n%s", i, q.Key(), keys[i])
		}
		for bi := range p.progs {
			if sharesStorage(q, &p.progs[bi]) {
				t.Errorf("corpus program %d shares storage with slot %d's buffer", i, bi)
			}
		}
	}
}

// TestReportProgramParsesToStep: every published report's Program text
// parses back to the key of the step program that found it. merge renders
// the text from the step's program, which for most steps is a slot buffer
// the next batch rewrites, so the check runs batch by batch while the
// slots still hold the batch's programs: the published instance of a
// title is the first in step order.
func TestReportProgramParsesToStep(t *testing.T) {
	p := NewPool(Config{Seed: 5, UseSeeds: true, Bugs: allBugSwitches()}, 2)
	target := modules.Target()
	published := 0
	for b := 0; b < 24; b++ {
		for _, r := range p.Run(batchSize) {
			var step *jobResult
			for bi := range p.results {
				for _, jr := range p.results[bi].reports {
					if step == nil && jr.r.Title == r.Title {
						step = &p.results[bi]
					}
				}
			}
			if step == nil {
				t.Fatalf("%q: no step of the batch reported it", r.Title)
			}
			q, err := target.Parse(r.Program)
			if err != nil {
				t.Fatalf("%q: program text does not parse: %v\n%s", r.Title, err, r.Program)
			}
			if q.Key() != step.prog.Key() {
				t.Errorf("%q: program text parses to\n%s\nthe step ran\n%s", r.Title, q.Key(), step.prog.Key())
			}
			published++
		}
	}
	if published == 0 {
		t.Fatal("no report published: the test checks nothing")
	}
}

// TestCampaignStepAllocs pins the heap objects a steady-state campaign
// step allocates: steps 1,024 to 3,071 of a width-1 campaign at seed 3,
// after the slots, worker scratch and kernels have warmed up. What is
// left per step is mostly what the campaign keeps (memo map growth,
// corpus copies, reports) and the modules' per-run state. The counts
// were 3.44 (fixed) and 4.48 (table34) when the bounds were last set: a
// memo record is 8 bytes under a 64-bit program hash, with no key string
// and no report list; an OOO report for a title already merged holds
// only its title.
func TestCampaignStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		bugs modules.BugSet
		max  float64
	}{
		{"fixed", nil, 4},
		{"table34", table34Switches(), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(Config{Seed: 3, Bugs: tc.bugs}, 1)
			p.Run(1024)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p.Run(2048)
			runtime.ReadMemStats(&after)
			perStep := float64(after.Mallocs-before.Mallocs) / 2048
			t.Logf("%.2f objects per step", perStep)
			if perStep > tc.max {
				t.Errorf("%.2f objects allocated per step, want <= %v", perStep, tc.max)
			}
		})
	}
}
