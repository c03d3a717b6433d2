package engine

import (
	"fmt"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/sched"
	"ozz/internal/trace"
)

// Strategy is an execution policy plugged into the engine: it decides how
// a program's calls are scheduled (sequentially, or as a concurrent pair
// under some policy), which OEMU directives are installed, and which
// observers watch the kernel. The engine owns everything else — kernel
// acquisition and recycling, module building, task creation, session
// spawning, crash recovery, and result publication — so a strategy is
// only the delta between execution paths.
//
// The built-in strategies reproduce the paper's four drivers: OOO (§4,
// the hypothetical-barrier MTI executor), Sequential (§6.3.2, the
// syzkaller baseline), Interleave (§6.3.2, schedule-only fuzzing), and —
// implemented outside this package to prove the plug-point —
// baseline/kcsan's watchpoint sampler (§7).
type Strategy interface {
	// Name identifies the strategy (reports, stats, debugging).
	Name() string
	// Attach installs the strategy's observers on a freshly built kernel
	// — after modules are built, before any call runs. Most strategies
	// attach nothing; KCSAN installs its OnAccess watchpoint sampler.
	Attach(k *kernel.Kernel, req *Request)
	// Pair returns the concurrent-pair plan for the request, or nil to
	// run the whole program sequentially on one task.
	Pair(cfg *Config, req *Request) *PairPlan
}

// PairPlan describes one prefix/pair(/suffix) execution: the program's
// calls before J (except I) run sequentially to build kernel state, then
// CallA and CallB run concurrently on CPUs 1 and 2 under Policy.
type PairPlan struct {
	// Policy schedules the concurrent stage (breakpoint, random, ...).
	Policy sched.Policy
	// CallA and CallB are the call indices run by task 1 (CPU 1) and
	// task 2 (CPU 2) respectively.
	CallA, CallB int
	// Suffix runs the program's calls after J sequentially once the pair
	// completes without crashing (an MTI consists of the same call set as
	// its STI; trailing calls can carry bug-detecting assertions). The
	// baselines run no suffix.
	Suffix bool
	// Reorder, when non-nil, names the OEMU directive set task A (the
	// reorderer) runs under. The engine resolves it through its
	// precompiled-plan cache — keyed by model, test kind and sites, not
	// by program — and installs the shared immutable plan on task A's
	// OEMU thread before Arm runs, so per-run directive-set construction
	// happens at most once per distinct (model, test, sites).
	Reorder *ReorderSpec
	// Arm, if non-nil, runs after the pair tasks are created, after the
	// Reorder plan is installed, and before the tasks are spawned — the
	// hook for schedule-coupled state and ad-hoc directives (ta is task 1,
	// tb is task 2).
	Arm func(ta, tb *kernel.Task)
	// Finish, if non-nil, runs after the concurrent stage completes
	// (before the suffix) to harvest strategy-specific outcomes into the
	// result (breakpoint fired, reorder counts, ...).
	Finish func(res *Result, ta, tb *kernel.Task)
}

// ReorderSpec names an OEMU directive set declaratively: the hypothetical
// barrier test kind plus the instruction sites it reorders (Table 2 — a
// store-barrier test delays the stores at Sites, a load-barrier test makes
// the loads at Sites read old values). Specs are values the engine can
// hash and cache; the compiled form is oemu.Plan.
type ReorderSpec struct {
	// Test is the hypothetical barrier test kind the directives emulate.
	Test hints.TestKind
	// Sites are the instruction sites the directives apply to.
	Sites []trace.InstrID
}

// OOO is OZZ's hypothetical-memory-barrier strategy (§4.4): the
// reorderer task carries the hint's OEMU directives (delayed stores or
// versioned loads) and a breakpoint policy switches to the observer at
// the hint's scheduling point. Without a hint the program runs
// sequentially — the STI profiling path.
//
// OOO is migration-aware (Table 4 #6, §6.2): when the hint is
// migration-sensitive (Hint.Migrate non-empty — the racing pair shares a
// per-CPU location) the breakpoint is wrapped in a sched.MigrateAt
// combinator that moves the observer task to CPU 0 — the CPU the
// sequential prefix ran on, where the stale per-CPU state lives — at the
// moment the scheduling point fires. The move does not flush the
// reorderer's store buffer, so the delayed stores stay delayed while the
// observer re-resolves per-CPU addresses on its new CPU. Hints with no
// migration sites run the pinned-thread test of the paper unchanged. The
// directive-plan cache needs no migration awareness: a migration is
// schedule state (a policy), not an OEMU directive.
type OOO struct{}

// Name implements Strategy.
func (OOO) Name() string { return "ooo" }

// Attach implements Strategy: no observers, but load-barrier MTIs need
// OEMU store-history tracking on from the very first prefix access — a
// versioned load may legitimately observe prefix-era values — so Attach
// re-enables the tracking the engine disables by default for engine runs.
// Store-barrier tests and sequential (STI) runs execute no versioned
// loads and leave it off, as do runs under a model with no versionable
// loads at all (TSO): its read-old directives are inert, so recording
// history would be pure overhead. The engine installs the run's model
// before Attach, so the emulator's table is authoritative here.
func (OOO) Attach(k *kernel.Kernel, req *Request) {
	if req.Hint != nil && !req.NoReorder && req.Hint.Test == hints.LoadBarrierTest &&
		k.Em.Model().AnyVersionable() {
		k.Em.SetHistoryTracking(true)
	}
}

// Pair implements Strategy: the hint selects reorderer/observer roles,
// the directive kind, the breakpoint position, and whether the observer
// migrates at the switch. Nil without a hint (the sequential/STI path).
func (OOO) Pair(cfg *Config, req *Request) *PairPlan {
	if req.Hint == nil {
		return nil
	}
	hint := req.Hint
	callA, callB := req.I, req.J
	if hint.Reorderer == 1 {
		callA, callB = req.J, req.I
	}
	pos := sched.PosAfter
	if hint.Test == hints.LoadBarrierTest {
		pos = sched.PosBefore
	}
	bp := &sched.Breakpoint{
		FromTask:   1,
		Instr:      hint.Sched,
		Occurrence: hint.SchedOcc,
		Pos:        pos,
		ToTask:     2,
	}
	var policy sched.Policy = bp
	var ma *sched.MigrateAt
	if len(hint.Migrate) > 0 {
		ma = &sched.MigrateAt{Inner: bp, Task: bp.ToTask, ToCPU: 0}
		policy = ma
	}
	var spec *ReorderSpec
	if !req.NoReorder && len(hint.Reorder) > 0 {
		spec = &ReorderSpec{Test: hint.Test, Sites: hint.Reorder}
	}
	interrupt := cfg.InterruptOnSwitch
	return &PairPlan{
		Policy:  policy,
		CallA:   callA,
		CallB:   callB,
		Suffix:  true,
		Reorder: spec,
		Arm: func(ta, _ *kernel.Task) {
			if interrupt {
				bp.OnSwitch = ta.Interrupt
			}
		},
		Finish: func(res *Result, ta, _ *kernel.Task) {
			res.Fired = bp.Fired
			res.Reordered = ta.OEMU().ReorderedCount()
			res.ReorderLog = append(res.ReorderLog, ta.OEMU().Log...)
			if ma != nil {
				res.Migrations = ma.Migrations
			}
		},
	}
}

// Sequential is the syzkaller-baseline strategy: every program runs
// sequentially on one task, whatever the request's pair fields say.
type Sequential struct{}

// Name implements Strategy.
func (Sequential) Name() string { return "sequential" }

// Attach implements Strategy (no observers).
func (Sequential) Attach(*kernel.Kernel, *Request) {}

// Pair implements Strategy: never a concurrent stage.
func (Sequential) Pair(*Config, *Request) *PairPlan { return nil }

// Interleave is the interleaving-only baseline strategy
// (Snowboard/Razzer-style): the pair runs under a seeded random schedule
// — thread interleaving control WITHOUT memory reordering, so OOO bugs
// stay invisible (§2.3).
type Interleave struct{}

// interleavePeriod is the Interleave baseline's random switch period.
const interleavePeriod = 2

// Name implements Strategy.
func (Interleave) Name() string { return "interleave" }

// Attach implements Strategy (no observers).
func (Interleave) Attach(*kernel.Kernel, *Request) {}

// Pair implements Strategy: calls I and J under a random schedule seeded
// from the request.
func (Interleave) Pair(_ *Config, req *Request) *PairPlan {
	return &PairPlan{
		Policy: &sched.Random{Seed: req.Seed, Period: interleavePeriod},
		CallA:  req.I,
		CallB:  req.J,
	}
}

// ParseStrategy resolves a campaign-facing strategy label to the built-in
// strategy it names. The only campaign strategy is the OOO executor: ""
// and "ooo" select it, and so does the retired "migration" label, which
// OOO now subsumes (kept as an alias for callers that still pass it). The
// sequential/interleave/kcsan baselines are separate drivers
// (internal/baseline), not campaign knobs.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "ooo", "migration":
		return OOO{}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want ooo)", name)
}
