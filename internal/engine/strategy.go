package engine

import (
	"fmt"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/sched"
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
	// Pair fills plan for a concurrent-pair run of the request and
	// reports true, or reports false to run the whole program
	// sequentially on one task. The plan is engine-owned and zeroed
	// before the call; it is recycled with the kernel, so a strategy
	// that keeps its schedule and hooks in it allocates nothing per run.
	Pair(req *Request, plan *PairPlan) bool
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
	// Arm, if non-nil, runs after the pair tasks are created and before
	// they are spawned — the hook for OEMU directives and
	// schedule-coupled state (ta is task 1, tb is task 2).
	Arm func(req *Request, ta, tb *kernel.Task)
	// Finish, if non-nil, runs after the concurrent stage completes
	// (before the suffix) to harvest strategy-specific outcomes into the
	// result (breakpoint fired, reorder counts, ...).
	Finish func(plan *PairPlan, res *Result, ta, tb *kernel.Task)
	// Breakpoint is storage for a breakpoint schedule, for Policy (or
	// Migrate) to point at.
	Breakpoint sched.Breakpoint
	// Migrate is storage for a migration wrapper, for Policy to point at.
	Migrate sched.MigrateAt
}

// OOO is OZZ's hypothetical-memory-barrier strategy (§4.4): the
// reorderer task carries the hint's OEMU directives (delayed stores or
// versioned loads) and a breakpoint policy switches to the observer at
// the hint's scheduling point. Without a hint the program runs
// sequentially — the STI profiling path.
//
// OOO is migration-aware (Table 4 #6, §6.2): when the hint is
// migration-sensitive (Hint.Migrate set — the racing pair shares a
// per-CPU location) the breakpoint is wrapped in a sched.MigrateAt
// combinator that moves the observer task to CPU 0 — the CPU the
// sequential prefix ran on, where the stale per-CPU state lives — at the
// moment the scheduling point fires. The move does not flush the
// reorderer's store buffer, so the delayed stores stay delayed while the
// observer re-resolves per-CPU addresses on its new CPU. Hints with no
// migration sites run the pinned-thread test of the paper unchanged.
type OOO struct{}

// Name implements Strategy.
func (OOO) Name() string { return "ooo" }

// Attach implements Strategy: no observers, but load-barrier MTIs need
// OEMU store-history tracking on from the very first prefix access — a
// versioned load may legitimately observe prefix-era values — so Attach
// re-enables the tracking the engine disables by default for engine runs.
// Store-barrier tests, load tests with no reorder sites (triage runs) and
// sequential (STI) runs execute no versioned loads and leave it off, as
// do runs under a model with no versionable loads at all (TSO): its
// read-old directives are inert, so recording history would be pure
// overhead. The engine installs the run's model before Attach, so the
// emulator's table is authoritative here.
func (OOO) Attach(k *kernel.Kernel, req *Request) {
	if h := req.Hint; h != nil && len(h.Reorder) > 0 && h.Test == hints.LoadBarrierTest &&
		k.Em.Model().AnyVersionable() {
		k.Em.SetHistoryTracking(true)
	}
}

// Pair implements Strategy: the hint selects reorderer/observer roles,
// the directive kind, the breakpoint position, and whether the observer
// migrates at the switch. False without a hint (the sequential/STI path).
func (OOO) Pair(req *Request, plan *PairPlan) bool {
	hint := req.Hint
	if hint == nil {
		return false
	}
	plan.CallA, plan.CallB = req.I, req.J
	if hint.Reorderer == 1 {
		plan.CallA, plan.CallB = req.J, req.I
	}
	pos := sched.PosAfter
	if hint.Test == hints.LoadBarrierTest {
		pos = sched.PosBefore
	}
	plan.Breakpoint = sched.Breakpoint{
		FromTask:   1,
		Instr:      hint.Sched,
		Occurrence: hint.SchedOcc,
		Pos:        pos,
		ToTask:     2,
	}
	plan.Policy = &plan.Breakpoint
	if hint.Migrate {
		plan.Migrate = sched.MigrateAt{Inner: &plan.Breakpoint, Task: plan.Breakpoint.ToTask, ToCPU: 0}
		plan.Policy = &plan.Migrate
	}
	plan.Suffix = true
	plan.Arm = armOOO
	plan.Finish = finishOOO
	return true
}

// armOOO installs the hint's directives on the reorderer (Table 2): a
// store-barrier test delays the stores at the hint's sites, a
// load-barrier test versions the loads there. A hint with no sites (a
// triage run) installs none.
func armOOO(req *Request, ta, _ *kernel.Task) {
	hint := req.Hint
	dir := &ta.OEMU().Dir
	for _, s := range hint.Reorder {
		if hint.Test == hints.LoadBarrierTest {
			dir.ReadOldValueAt(s)
		} else {
			dir.DelayStoreAt(s)
		}
	}
}

// finishOOO records whether the breakpoint fired, the reorderer's
// reorderings, and the observer's migrations. Only the reorderer carries
// directives, so the emulator's delayed stores and versioned loads are
// all its own.
func finishOOO(plan *PairPlan, res *Result, ta, _ *kernel.Task) {
	res.Fired = plan.Breakpoint.Fired
	n := ta.K.Em.Counters()
	res.Reordered = int(n.StoresDelayed + n.VersionedLoads)
	res.Migrations = plan.Migrate.Migrations
}

// Sequential is the syzkaller-baseline strategy: every program runs
// sequentially on one task, whatever the request's pair fields say.
type Sequential struct{}

// Name implements Strategy.
func (Sequential) Name() string { return "sequential" }

// Attach implements Strategy (no observers).
func (Sequential) Attach(*kernel.Kernel, *Request) {}

// Pair implements Strategy: never a concurrent stage.
func (Sequential) Pair(*Request, *PairPlan) bool { return false }

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
func (Interleave) Pair(req *Request, plan *PairPlan) bool {
	plan.Policy = &sched.Random{Seed: req.Seed, Period: interleavePeriod}
	plan.CallA, plan.CallB = req.I, req.J
	return true
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
