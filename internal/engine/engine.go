// Package engine owns the execution lifecycle every OZZ path shares:
// kernel acquisition (recycled via Reset), module
// building, task spawning under the deterministic scheduler,
// panic-to-crash recovery, and result publication (coverage, soft
// reports, return values, profiles). The paper evaluates one runtime
// under four drivers — OZZ's OEMU executor (§4), the syzkaller and
// interleaving baselines (§6.3.2), and KCSAN (§7) — and each driver is
// expressed here as a Strategy plugged into the same engine, so the
// build/run/recover/report loop exists exactly once.
package engine

import (
	"sort"
	"sync"
	"time"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/oemu"
	"ozz/internal/sched"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// Request selects what to execute: the program, the concurrent pair, the
// scheduling hint, and the per-run knobs. Strategy implementations read
// the fields they understand and ignore the rest.
type Request struct {
	// Prog is the syzlang program to execute.
	Prog *syzlang.Program
	// I and J index the pair of calls to run concurrently (I < J). Unused
	// by sequential runs.
	I, J int
	// Hint is the OOO scheduling hint: interleaving point plus reordering
	// directives. A nil hint makes the OOO strategy run sequentially.
	Hint *hints.Hint
	// NoReorder suppresses the OEMU directives while keeping the
	// breakpoint schedule — the triage re-run that separates genuine OOO
	// bugs from plain interleaving races (the paper's authors performed
	// this classification manually on 61 crash titles, §6.1).
	NoReorder bool
	// Prof, when non-nil, receives each call's memory-access events in
	// sequential runs (requires an instrumented kernel). The engine resets
	// it once per run and records the calls back to back; the result's
	// CallEvents are views into it, valid until Prof is next used.
	Prof *trace.Buffer
	// Out, when non-nil, receives the run's result in place of a fresh
	// one: the engine resets it, reusing the storage of its slices, and
	// returns it. The caller owns it; what it holds is valid until Out is
	// next used.
	Out *Result
	// Seed feeds seeded schedule policies (the Interleave strategy's
	// random schedule; KCSAN's sampling stream).
	Seed int64
}

// Result is the outcome of one engine run — the union of what the
// sequential (STI) and pair (MTI) shapes produce. Fields that do not
// apply to a run's shape are zero.
type Result struct {
	// Crash is non-nil if the run crashed (a kernel bug oracle fired).
	Crash *kernel.Crash
	// Deadlock is non-nil if the run deadlocked.
	Deadlock *sched.Deadlock
	// PrefixCrash marks a crash during the sequential prefix of a pair
	// run (a non-OOO crash; the concurrent stage never ran).
	PrefixCrash bool
	// Fired reports whether the scheduling point was reached (OOO runs).
	Fired bool
	// Reordered counts the OEMU reorderings that actually occurred in
	// the reorderer (delayed stores + versioned loads).
	Reordered int
	// ReorderLog carries the reorder records for the bug report.
	ReorderLog []oemu.ReorderRecord
	// Migrations counts the real cross-CPU task moves the OOO strategy
	// performed at the scheduling point (zero for other strategies and
	// for migration-insensitive hints).
	Migrations int
	// CallEvents holds the profiled event sequence of each call (§4.2) in
	// profiling runs: a view into Request.Prof whose capacity ends at its
	// length. A call that recorded nothing, and every call past a crash,
	// has a nil entry; the crashing call keeps its partial profile.
	CallEvents [][]trace.Event
	// Returns holds each call's return value (resources for later calls)
	// in sequential runs.
	Returns []uint64
	// Cov is the KCov edge set covered by the run, each edge once, in
	// first-hit order: a copy of the kernel's edge set, which the
	// kernel's next Reset clears.
	Cov []uint64
	// Soft holds non-crash oracle reports.
	Soft []string
}

// buildFunc stands in for module building in white-box tests: the
// instance it returns serves the calls whose def names no module, so
// synthetic syscall implementations run without a registered module.
type buildFunc func(k *kernel.Kernel) modules.Instance

// runner is one recyclable kernel together with the per-run state the
// engine reuses alongside it.
type runner struct {
	k *kernel.Kernel
	// cfg, req and plan are the current run's config, request and pair
	// plan. Strategies receive pointers to them, which would move
	// per-run copies to the heap if they lived on the stack.
	cfg  Config
	req  Request
	plan PairPlan
	// res is the current run's result.
	res *Result
	// tasks holds the run's kernel tasks: the sequential (or prefix and
	// suffix) task, then the pair's tasks.
	tasks [3]*kernel.Task
	// args holds the resolved arguments of the call each task is in:
	// slot 0 for the sequential task, 1 and 2 for the pair's tasks.
	args [3][]uint64
	// returns holds a pair run's call results.
	returns []uint64
	// prof, ci and start track a sequential run's profiling: the buffer,
	// the call in progress, and where its events begin.
	prof      *trace.Buffer
	ci, start int
	// mods is the run's syscall table: its module subset and the
	// instances built from it.
	mods modules.Set
	// The task bodies, bound to the runner once so that spawning them
	// allocates nothing per run.
	seqBody, prefixBody, suffixBody func(*sched.Task)
	pairBody                        [2]func(*sched.Task)
}

// newRunner returns a runner over a fresh kernel.
func newRunner() *runner {
	r := &runner{k: kernel.New()}
	r.seqBody, r.prefixBody, r.suffixBody = r.sequential, r.prefix, r.suffix
	r.pairBody = [2]func(*sched.Task){r.pairA, r.pairB}
	return r
}

// Engine executes requests. It is safe for concurrent use: the kernel
// recycler is internally synchronized, and every run works on its own
// kernel. One Engine instance amortizes kernel construction across all
// runs sharing it: every kernel has kernel.NrCPU CPUs, so any idle one
// serves any run.
type Engine struct {
	// idle holds the runners no run is using, for the next acquire to
	// recycle: Reset on a used kernel is much cheaper than rebuilding
	// memory pages, emulator maps, and allocator state from scratch. An
	// engine keeps as many runners as it ever ran at once, for its whole
	// life, so live heap does not depend on when the collector runs.
	mu   sync.Mutex
	idle []*runner

	// m holds the engine's pre-resolved metric handles (see obs.go).
	// Every lifecycle counter — kernel acquisitions, run outcomes,
	// OEMU/scheduler activity — is registry-backed.
	m *metrics
}

// NewObs returns an engine publishing its lifecycle metrics into reg
// (nil = a fresh private registry). Sharing one registry across engines
// is legal — registration is get-or-create — but makes the kernel
// counters cumulative across all sharing engines.
func NewObs(reg *obs.Registry) *Engine {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{m: newMetrics(reg)}
}

// Obs returns the registry this engine publishes into.
func (e *Engine) Obs() *obs.Registry { return e.m.reg }

// Run executes one request under the strategy. The config is normalized
// (defaults resolved) before use.
func (e *Engine) Run(cfg Config, s Strategy, req Request) *Result {
	return e.run(cfg, s, req, nil)
}

// run is Run with an injectable module builder (white-box tests).
func (e *Engine) run(cfg Config, s Strategy, req Request, build buildFunc) *Result {
	cfg.normalize()
	start := time.Now()
	r := e.acquire(&cfg)
	r.cfg, r.req = cfg, req
	k := r.k
	// The model must be installed before Attach (OOO's history-tracking
	// decision reads it) and before any task executes an access. Reset
	// restored the recycled emulator to LKMM; this is the one switch point.
	k.Em.SetModel(cfg.Model)
	// Engine runs record OEMU store history only when they can consume it:
	// versioned loads exist solely in load-barrier MTIs, and the OOO
	// strategy's Attach turns tracking back on for those (from clock 0, so
	// the observable behavior is identical to always-on). Everything else —
	// STI profiling, store-barrier MTIs, the baselines — skips the per-store
	// history ring and stamp writes entirely. Strategies that install
	// versioned-load directives some other way are still sound: arming a
	// read-old directive mid-run re-enables tracking with a window floored
	// at the arm point.
	k.Em.SetHistoryTracking(false)
	if build != nil {
		r.mods.Names = append(r.mods.Names[:0], "")
		r.mods.Insts = append(r.mods.Insts[:0], build(k))
	} else {
		r.mods.Names = moduleSubset(r.mods.Names[:0], &cfg, req.Prog)
		r.mods.Build(k, cfg.Bugs)
	}
	s.Attach(k, &r.req)
	r.res = newResult(req.Out)
	pair := s.Pair(&r.cfg, &r.req, &r.plan)
	if pair {
		e.runPair(r)
	} else {
		e.runSequential(r)
	}
	res := r.res
	// Publication is observation only: counters and wall-clock timings,
	// never anything a deterministic execution depends on.
	e.m.publishRun(s.Name(), pair, cfg.Model.Name(), time.Since(start), res, k.Em.Counters())
	e.release(r)
	return res
}

// newResult returns the result a run fills: out reset for reuse, keeping
// its slices' storage, or a fresh result when out is nil.
func newResult(out *Result) *Result {
	if out == nil {
		return new(Result)
	}
	*out = Result{
		ReorderLog: out.ReorderLog[:0],
		CallEvents: out.CallEvents[:0],
		Returns:    out.Returns[:0],
		Cov:        out.Cov[:0],
		Soft:       out.Soft[:0],
	}
	return out
}

// zeroed returns n zero elements in s's storage when it has room, or in a
// new slice of exactly n.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// moduleSubset returns the modules to build for one run of prog, in sorted
// order and in names' storage: the registered modules the program's calls
// belong to, intersected with the configured universe. Building every registered
// module dominated the run profile (~40% CPU, ~2/3 of allocations) while a
// typical program touches one or two. The subset is a pure function of
// (program, config), so runs stay deterministic, and a call whose module
// is outside cfg.Modules gets no implementation: -ENOSYS.
func moduleSubset(names []string, cfg *Config, p *syzlang.Program) []string {
	for i := range p.Calls {
		m := p.Calls[i].Def.Module
		if modules.ByName(m) == nil {
			continue
		}
		dup := false
		for _, n := range names {
			if n == m {
				dup = true
				break
			}
		}
		if !dup {
			names = append(names, m)
		}
	}
	sort.Strings(names)
	if len(cfg.Modules) > 0 {
		kept := names[:0]
		for _, n := range names {
			for _, allowed := range cfg.Modules {
				if n == allowed {
					kept = append(kept, n)
					break
				}
			}
		}
		names = kept
	}
	return names
}

// acquire returns a runner — an idle one when possible — whose
// kernel has the config's feature switches applied. The kernel is
// identical to a freshly-constructed one: Reset restores every observable
// property (memory content, sanitizer state, emulator clock, site tables).
func (e *Engine) acquire(cfg *Config) *runner {
	start := time.Now()
	r := e.idleRunner()
	if r != nil {
		r.k.Reset()
		e.m.kernelRecycled.Inc()
	} else {
		r = newRunner()
		e.m.kernelBuilt.Inc()
	}
	e.m.acquireDur.Observe(time.Since(start).Seconds())
	r.k.Instrumented = cfg.Instrumented
	r.k.Sanitizers = true
	return r
}

// release returns a runner to the recycler once an execution has finished
// with it, dropping its references to the run's request, result and
// module instances. Results share no kernel state that Reset mutates in
// place: Cov, Soft and ReorderLog are copies.
func (e *Engine) release(r *runner) {
	r.req, r.plan, r.res, r.prof = Request{}, PairPlan{}, nil, nil
	clear(r.mods.Insts)
	e.mu.Lock()
	e.idle = append(e.idle, r)
	e.mu.Unlock()
}

// idleRunner takes the most recently released idle runner, or returns
// nil.
func (e *Engine) idleRunner() *runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.idle)
	if n == 0 {
		return nil
	}
	r := e.idle[n-1]
	e.idle[n-1] = nil
	e.idle = e.idle[:n-1]
	return r
}

// resolveArgs materializes a call's arguments, given earlier calls'
// results, in dst's storage.
func resolveArgs(dst []uint64, c *syzlang.Call, returns []uint64) []uint64 {
	dst = dst[:0]
	for _, a := range c.Args {
		v := a.Val
		if a.Res {
			v = 0
			if a.Ref >= 0 && a.Ref < len(returns) {
				v = returns[a.Ref]
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// errno for a call with no implementation (module not loaded).
const enosys = ^uint64(37) // -38

// execCall runs call ci of a pair run on a task, with its arguments in
// args slot, and records its result. The store buffer drains at syscall
// return.
func execCall(t *kernel.Task, r *runner, slot int, ci int) {
	c := &r.req.Prog.Calls[ci]
	r.args[slot] = resolveArgs(r.args[slot], c, r.returns)
	in := r.mods.Lookup(c.Def)
	if in == nil {
		r.returns[ci] = enosys
		return
	}
	r.returns[ci] = in.Call(c.Def.Nr, t, r.args[slot])
	t.SyscallReturn()
}

// runSequential executes the whole program on one task — the STI
// profiling path and the syzkaller baseline.
func (e *Engine) runSequential(r *runner) {
	k, res, n := r.k, r.res, len(r.req.Prog.Calls)
	res.CallEvents = zeroed(res.CallEvents, n)
	res.Returns = zeroed(res.Returns, n)
	if r.cfg.Instrumented && r.req.Prof != nil {
		r.prof = r.req.Prof
		r.prof.Reset()
	}
	task := k.NewTask(0)
	r.tasks[0] = task
	session := sched.NewSession(sched.Sequential{})
	session.Spawn(0, 0, r.seqBody)
	aborted := session.Run()
	e.m.observeSession(session)
	session.Release()
	// A crash leaves call ci's profile attached: keep what it recorded.
	if task.Prof != nil {
		res.CallEvents[r.ci] = r.prof.Since(r.start)
		task.Prof = nil
	}
	classifyAbort(aborted, res)
	res.Cov = append(res.Cov, k.Cov.Edges()...)
	res.Soft = append(res.Soft, k.Soft...)
}

// sequential is the sequential task's body: every call back to back, each
// recording after the previous one in the profile buffer, so call ci's
// profile is the view of what it recorded from start on.
func (r *runner) sequential(st *sched.Task) {
	task, p, res, prof := r.tasks[0], r.req.Prog, r.res, r.prof
	task.Bind(st)
	for r.ci = range p.Calls {
		c := &p.Calls[r.ci]
		r.args[0] = resolveArgs(r.args[0], c, res.Returns)
		in := r.mods.Lookup(c.Def)
		if in == nil {
			res.Returns[r.ci] = enosys
			continue
		}
		if prof != nil {
			r.start = prof.Len()
			task.Prof = prof
		}
		res.Returns[r.ci] = in.Call(c.Def.Nr, task, r.args[0])
		task.SyscallReturn()
		if prof != nil {
			res.CallEvents[r.ci] = prof.Since(r.start)
			task.Prof = nil
		}
	}
}

// runPair executes the prefix/pair(/suffix) shape: the program's calls
// before J (except I) run sequentially to build kernel state; then the
// plan's two calls run concurrently on CPUs 1 and 2 under its policy
// (Fig. 5).
func (e *Engine) runPair(r *runner) {
	k, res, plan := r.k, r.res, &r.plan
	// Calls that have not run yet (call I during the prefix) read as 0.
	r.returns = zeroed(r.returns, len(r.req.Prog.Calls))

	// Stage 1: sequential prefix.
	r.tasks[0] = k.NewTask(0)
	prefix := sched.NewSession(sched.Sequential{})
	prefix.Spawn(0, 0, r.prefixBody)
	aborted := prefix.Run()
	e.m.observeSession(prefix)
	prefix.Release()
	if aborted != nil {
		classifyAbort(aborted, res)
		res.PrefixCrash = true
		res.Cov = append(res.Cov, k.Cov.Edges()...)
		return
	}

	// Stage 2: the concurrent pair under the plan's policy, with the
	// plan's directives/observers armed on the fresh tasks.
	r.tasks[1] = k.NewTask(1)
	r.tasks[2] = k.NewTask(2)
	if plan.Arm != nil {
		plan.Arm(plan, &r.req, r.tasks[1], r.tasks[2])
	}
	session := sched.NewSession(plan.Policy)
	session.Spawn(1, 1, r.pairBody[0])
	session.Spawn(2, 2, r.pairBody[1])
	pairAborted := session.Run()
	e.m.observeSession(session)
	classifyAbort(pairAborted, res)
	if plan.Finish != nil {
		plan.Finish(plan, res, r.tasks[1], r.tasks[2])
	}
	session.Release()

	// Stage 3: sequential suffix (an MTI consists of the same call set as
	// its STI; calls after the pair can carry bug-detecting assertions).
	if plan.Suffix && res.Crash == nil && res.Deadlock == nil && r.req.J+1 < len(r.req.Prog.Calls) {
		suffix := sched.NewSession(sched.Sequential{})
		suffix.Spawn(3, 0, r.suffixBody)
		suffixAborted := suffix.Run()
		e.m.observeSession(suffix)
		suffix.Release()
		classifyAbort(suffixAborted, res)
	}
	res.Soft = append(res.Soft, k.Soft...)
	res.Cov = append(res.Cov, k.Cov.Edges()...)
}

// prefix is the prefix task's body: the calls before J, except I.
func (r *runner) prefix(st *sched.Task) {
	r.tasks[0].Bind(st)
	for ci := 0; ci < r.req.J; ci++ {
		if ci != r.req.I {
			execCall(r.tasks[0], r, 0, ci)
		}
	}
}

// pairA and pairB are the pair tasks' bodies: the plan's CallA on task 1
// and CallB on task 2.
func (r *runner) pairA(st *sched.Task) {
	r.tasks[1].Bind(st)
	execCall(r.tasks[1], r, 1, r.plan.CallA)
}

func (r *runner) pairB(st *sched.Task) {
	r.tasks[2].Bind(st)
	execCall(r.tasks[2], r, 2, r.plan.CallB)
}

// suffix is the suffix stage's body: the calls after J, on the prefix
// task.
func (r *runner) suffix(st *sched.Task) {
	r.tasks[0].Bind(st)
	for ci := r.req.J + 1; ci < len(r.req.Prog.Calls); ci++ {
		execCall(r.tasks[0], r, 0, ci)
	}
}

// classifyAbort sorts a session's recovered panic value into the result.
// Values that are neither *kernel.Crash nor *sched.Deadlock are genuine
// Go panics in the simulator itself and are re-raised so they surface as
// harness errors — no execution path may silently drop them.
func classifyAbort(aborted any, res *Result) {
	switch v := aborted.(type) {
	case nil:
	case *kernel.Crash:
		res.Crash = v
	case *sched.Deadlock:
		res.Deadlock = v
	default:
		panic(v)
	}
}
