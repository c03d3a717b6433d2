package sched

import (
	"math/rand"

	"ozz/internal/lazyrand"
	"ozz/internal/trace"
)

// SwitchPos says whether a breakpoint switch happens before or after the
// matched instruction executes. The hypothetical store barrier test switches
// after the scheduling-point instruction (Fig. 5a: the post-barrier store
// commits, then the observer runs); the hypothetical load barrier test
// switches before it (Fig. 5b: the writer builds the store history before
// the reader's first group load executes).
type SwitchPos uint8

const (
	// PosBefore switches before the matched instruction executes.
	PosBefore SwitchPos = iota
	// PosAfter switches after the matched instruction executes.
	PosAfter
)

// Sequential runs tasks to completion in spawn order with no interleaving.
// It is the policy of OZZ's single-threaded profiling phase.
type Sequential struct{}

// First returns the first spawned task.
func (Sequential) First(spawned int) int { return spawned }

// OnYield never switches.
func (Sequential) OnYield(*Task, trace.InstrID) (int, bool) { return 0, false }

// Breakpoint is the SKI/Razzer-style policy: run FromTask until it reaches
// instruction Instr (its Occurrence-th execution, counting from 1), switch
// to ToTask, run it to completion, then resume FromTask (the scheduler's
// default pick order handles the resume). This is the scheduling-hint
// executor of §4.4.
type Breakpoint struct {
	FromTask   int
	Instr      trace.InstrID
	Occurrence int
	Pos        SwitchPos
	ToTask     int

	seen int
	// Fired reports whether the breakpoint matched during the run; the
	// fuzzer discards runs whose scheduling point was never reached.
	Fired bool
}

// First runs the task carrying the breakpoint first.
func (b *Breakpoint) First(int) int { return b.FromTask }

// OnYield implements the breakpoint match.
func (b *Breakpoint) OnYield(cur *Task, instr trace.InstrID) (int, bool) {
	if cur.ID != b.FromTask || instr != b.Instr || b.Fired {
		return 0, false
	}
	b.seen++
	occ := b.Occurrence
	if occ <= 0 {
		occ = 1
	}
	if b.seen != occ {
		return 0, false
	}
	b.Fired = true
	if b.Pos == PosAfter {
		cur.ArmSwitchAfter(b.ToTask)
		return 0, false
	}
	return b.ToTask, true
}

// Random preempts at scheduling points with probability 1/Period, choosing
// uniformly among the other live tasks. It is the interleaving exploration
// of the in-order baseline fuzzer and of the KCSAN-style detector. With a
// fixed Seed the schedule is reproducible.
type Random struct {
	Seed   int64
	Period int

	rng *rand.Rand
}

// First runs the first spawned task.
func (r *Random) First(spawned int) int { return spawned }

// OnYield flips the seeded coin.
func (r *Random) OnYield(cur *Task, _ trace.InstrID) (int, bool) {
	if r.rng == nil {
		r.rng = rand.New(lazyrand.New(r.Seed))
	}
	period := r.Period
	if period <= 0 {
		period = 3
	}
	if r.rng.Intn(period) != 0 {
		return 0, false
	}
	var others []int
	for _, t := range cur.session.tasks {
		if t != cur && t.state != Done {
			others = append(others, t.ID)
		}
	}
	if len(others) == 0 {
		return 0, false
	}
	return others[r.rng.Intn(len(others))], true
}
