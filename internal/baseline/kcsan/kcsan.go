// Package kcsan implements a KCSAN-style sampling data-race detector over
// the simulated kernel — the comparison point of the paper's §7:
//
//   - KCSAN samples an access, installs a watchpoint, STALLS the thread,
//     and reports a data race if a conflicting access from another thread
//     lands in the window;
//   - accesses annotated with READ_ONCE/WRITE_ONCE or atomics are exempt
//     (marked accesses do not constitute a data race) — which is precisely
//     why the WRITE_ONCE/READ_ONCE "fix" of the paper's Bug #9 case study
//     silenced KCSAN while leaving the OOO bug in place;
//   - it never reorders anything, so bugs with NO data race (the Fig. 8
//     bit-lock, whose accesses are all atomic) are invisible to it.
//
// The detector is an engine.Strategy implemented OUTSIDE internal/engine:
// it plugs its watchpoint sampler into the shared execution engine as an
// OnAccess observer plus a random schedule policy, demonstrating that new
// detectors need no private copy of the kernel-lifecycle loop.
package kcsan

import (
	"fmt"
	"math/rand"

	"ozz/internal/engine"
	"ozz/internal/kernel"
	"ozz/internal/lazyrand"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/sched"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// Race is one detected data race: the functions of its two accesses,
// the watched one first.
type Race struct {
	FirstFn  string
	SecondFn string
}

// String renders the KCSAN-style report title.
func (r *Race) String() string {
	return fmt.Sprintf("KCSAN: data-race in %s / %s", r.FirstFn, r.SecondFn)
}

// Detector drives race detection over concurrent call pairs.
type Detector struct {
	Modules []string
	Bugs    modules.BugSet
	// SampleEvery installs a watchpoint on every Nth eligible access.
	SampleEvery int
	Seed        int64

	eng *engine.Engine

	Races []*Race
}

// NewObs builds a detector publishing engine lifecycle metrics into reg
// (nil = a fresh private registry).
func NewObs(mods []string, bugs modules.BugSet, seed int64, reg *obs.Registry) *Detector {
	return &Detector{Modules: mods, Bugs: bugs, SampleEvery: 3, Seed: seed, eng: engine.NewObs(reg)}
}

// watchpoint is the active watch, if any.
type watchpoint struct {
	addr   trace.Addr
	kind   trace.AccessKind
	atom   trace.Atomicity
	taskID int
	fn     string
	hit    *Race
}

// marked reports whether the access is annotated (READ_ONCE/WRITE_ONCE,
// atomic, acquire/release): marked accesses do not race.
func marked(a trace.Atomicity) bool { return a != trace.Plain }

// Strategy is the KCSAN engine strategy for one sampled pair run: Attach
// installs the watchpoint sampler as the kernel's OnAccess observer, and
// Pair schedules the concurrent stage under a seeded random policy.
type Strategy struct {
	// Detector receives detected races.
	Detector *Detector
	// Round salts the sampling and scheduling streams so every pair run
	// draws an independent (but reproducible) sequence.
	Round int64
}

// Name implements engine.Strategy.
func (s *Strategy) Name() string { return "kcsan" }

// Attach implements engine.Strategy: it installs the watchpoint sampler.
// The sampling stream is drawn fresh per run from (Seed, Round).
func (s *Strategy) Attach(k *kernel.Kernel, _ *engine.Request) {
	d := s.Detector
	rng := rand.New(lazyrand.New(d.Seed ^ s.Round))

	var wp *watchpoint
	sampleCountdown := 1 + rng.Intn(d.SampleEvery)
	k.OnAccess = func(t *kernel.Task, ev trace.AccessEvent) {
		// Conflict check against an active watchpoint from another
		// task: same address, at least one write, and at least one of
		// the two accesses unmarked.
		if wp != nil && wp.taskID != t.ID && wp.addr == ev.Addr {
			if (wp.kind == trace.Store || ev.Kind == trace.Store) &&
				(!marked(wp.atom) || !marked(ev.Atomic)) {
				wp.hit = &Race{FirstFn: wp.fn, SecondFn: t.CurrentFn()}
			}
			return
		}
		// Sampling: only unmarked accesses are watch candidates
		// (watching a marked access cannot produce a reportable race
		// with another marked access anyway; real KCSAN also treats
		// marked accesses as lower priority). Never stall inside an
		// atomic RMW (ev.NoYield: the store half of an indivisible
		// operation) — a real watchpoint cannot land between the two
		// halves of an atomic instruction either.
		if wp != nil || marked(ev.Atomic) || ev.NoYield ||
			t.Sched() == nil || t.Sched().Peers() == 0 {
			return
		}
		sampleCountdown--
		if sampleCountdown > 0 {
			return
		}
		sampleCountdown = 1 + rng.Intn(d.SampleEvery)
		w := &watchpoint{
			addr: ev.Addr, kind: ev.Kind, atom: ev.Atomic,
			taskID: t.ID, fn: t.CurrentFn(),
		}
		wp = w
		// Stall the watching thread: let the peer run into the window.
		t.Sched().BlockSpin()
		t.Sched().ClearSpin()
		if w.hit != nil {
			d.Races = append(d.Races, w.hit)
		}
		wp = nil
	}
}

// Pair implements engine.Strategy: calls I and J run concurrently under
// a random schedule salted by the round. No suffix stage — detection is
// complete once the pair finishes.
func (s *Strategy) Pair(req *engine.Request, plan *engine.PairPlan) bool {
	plan.Policy = &sched.Random{Seed: s.Detector.Seed ^ s.Round ^ 0x5eed, Period: 3}
	plan.CallA, plan.CallB = req.I, req.J
	return true
}

// RunPair executes calls i and j of the program concurrently (prefix first,
// like the other executors) with watchpoint sampling active, and appends
// any detected races. Detection is independent of OEMU: the kernel runs
// fully in order; crashes under KCSAN runs are possible but not its
// product, so the run result is discarded.
func (d *Detector) RunPair(p *syzlang.Program, i, j int, round int64) {
	cfg := engine.Config{
		Modules:      d.Modules,
		Bugs:         d.Bugs,
		Instrumented: true,
	}
	d.eng.Run(cfg, &Strategy{Detector: d, Round: round}, engine.Request{Prog: p, I: i, J: j})
}

// Hunt samples every adjacent pair for `rounds` rounds and returns the
// distinct race titles.
func (d *Detector) Hunt(p *syzlang.Program, rounds int) []string {
	for r := 0; r < rounds; r++ {
		for i := 0; i+1 < len(p.Calls); i++ {
			for j := i + 1; j < len(p.Calls); j++ {
				d.RunPair(p, i, j, int64(r*1000+i*10+j))
			}
		}
	}
	seen := map[string]bool{}
	var titles []string
	for _, r := range d.Races {
		s := r.String()
		if !seen[s] {
			seen[s] = true
			titles = append(titles, s)
		}
	}
	return titles
}
