// Package engine owns the execution lifecycle every OZZ path shares:
// kernel acquisition (recycled via Reset from one process-wide list of
// idle runners), module building, task spawning under the deterministic
// scheduler, panic-to-crash recovery, and result publication (coverage,
// soft reports, return values, profiles, and per-run metrics tallied by
// the runner and flushed into the registry in bulk). The paper
// evaluates one runtime under four drivers — OZZ's OEMU executor (§4),
// the syzkaller and interleaving baselines (§6.3.2), and KCSAN (§7) —
// and each driver is expressed here as a Strategy plugged into the same
// engine, so the build/run/recover/report loop exists exactly once.
package engine

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/modules"
	"ozz/internal/obs"
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

// Finding is a report's reproducer: the multi-threaded input whose run
// produced the report, and the title it produced. Every re-run of a
// report — triage, the cross-model probe, fence repair's in-vivo closure
// and minimization — builds its request with Request and judges the
// result with Reproduced.
type Finding struct {
	// Prog is the reproducer program.
	Prog *syzlang.Program
	// I and J index the racing call pair (I < J).
	I, J int
	// Hint is the scheduling hint whose run produced the report: the
	// breakpoint schedule, and the reorder sites that reproduce it.
	Hint *hints.Hint
	// Title is the report's title: a crash title, or a soft-oracle
	// report's when Soft is set.
	Title string
	// Soft marks Title as a soft-oracle report rather than a kernel
	// crash.
	Soft bool
}

// Request returns the request that re-runs the finding's schedule with
// OEMU directives at the reorder sites only, writing into out (nil: a
// fresh result). The hint's own sites reproduce the finding; other sites
// get a copy of the hint that holds reorder itself. No sites is the
// triage run: the same schedule with nothing reordered, which separates
// OOO bugs from plain interleaving races (the paper's authors classified
// 61 crash titles this way by hand, §6.1).
func (f *Finding) Request(reorder []trace.InstrID, out *Result) Request {
	h := f.Hint
	if !slices.Equal(reorder, h.Reorder) {
		c := *h
		c.Reorder = reorder
		h = &c
	}
	return Request{Prog: f.Prog, I: f.I, J: f.J, Hint: h, Out: out}
}

// Reproduced reports whether a run reproduced the finding: it crashed
// with the finding's title or, for a soft finding, a soft oracle reported
// the title. A crash and a soft report with the same title are different
// findings.
func (f *Finding) Reproduced(res *Result) bool {
	if f.Soft {
		return slices.Contains(res.Soft, f.Title)
	}
	return res.Crash != nil && res.Crash.Title == f.Title
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
	// Dur is the run's wall-clock duration, kernel acquisition through
	// execution, as ozz_engine_run_duration_seconds observed it. Callers
	// timing a run read it instead of reading the clock again.
	Dur time.Duration
}

// buildFunc stands in for module building in white-box tests: the
// instance it returns serves the calls whose def names no module, so
// synthetic syscall implementations run without a registered module.
type buildFunc func(k *kernel.Kernel) modules.Instance

// runner is one recyclable kernel together with the per-run state the
// engine reuses alongside it: the run's scratch, the scheduler sessions
// and their carriers, and the tally of its runs' metrics.
type runner struct {
	k *kernel.Kernel
	// ran reports whether the kernel has run before: a run then resets
	// it first.
	ran bool
	// req and plan are the current run's request and pair plan.
	// Strategies receive pointers to them, which would move per-run
	// copies to the heap if they lived on the stack.
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
	// seq runs the sequential task (an STI, or a pair run's prefix and
	// suffix) on the run's own goroutine, and pair the concurrent pair
	// on the two carriers the runner keeps for its whole life.
	seq, pair *sched.Session
	// t tallies the metrics of the runner's runs until its holder
	// flushes them into its engine's registry.
	t tally
	// held marks a runner takeRunner handed out and releaseRunner has not
	// taken back: only those count as in use.
	held bool
}

// newRunner returns a runner over a fresh kernel.
func newRunner() *runner {
	r := &runner{
		k:    kernel.New(),
		seq:  sched.NewSession(sched.Sequential{}),
		pair: sched.NewSession(sched.Sequential{}),
		t:    newTally(),
	}
	r.seqBody, r.prefixBody, r.suffixBody = r.sequential, r.prefix, r.suffix
	r.pairBody = [2]func(*sched.Task){r.pairA, r.pairB}
	return r
}

// idle holds the process's runners that no run is using, most recently
// released last. Any engine recycles any of them: every kernel has
// kernel.NrCPU CPUs, Reset restores every observable property, and a run
// applies its own model, instrumentation, sanitizers and bug switches.
// Reset on a used kernel is much cheaper than rebuilding memory pages,
// emulator maps, and allocator state from scratch, and the runner's pair
// session keeps its two carriers, so short-lived engines reuse what
// earlier ones built. Each time the last runner in use comes back, the
// list keeps only as many runners as were in use at once since the last
// such time, so sequential pools of one width reuse the same runners and
// a narrower workload does not keep a wider one's alive. What it keeps
// does not depend on when the collector runs.
var idle struct {
	mu sync.Mutex
	r  []*runner
	// inUse counts the runners taken and not yet put back or dropped, and
	// peak the most in use at once since inUse was last 0.
	inUse, peak int
}

// takeRunner returns the most recently released idle runner, or a new
// one.
func takeRunner() *runner {
	idle.mu.Lock()
	var r *runner
	if n := len(idle.r); n > 0 {
		r = idle.r[n-1]
		idle.r[n-1] = nil
		idle.r = idle.r[:n-1]
	}
	idle.inUse++
	idle.peak = max(idle.peak, idle.inUse)
	idle.mu.Unlock()
	if r == nil {
		r = newRunner()
	}
	r.held = true
	return r
}

// releaseRunner ends a runner's use: it goes back on the idle list, or
// is dropped when recycle is false (its run panicked). When it was the
// last runner in use, the list drops its least recently released
// runners beyond the peak. A dropped runner's carriers stop: a runner
// leaves use only before any task ran or once every task is done, so
// they are at rest.
func releaseRunner(r *runner, recycle bool) {
	var drop []*runner
	idle.mu.Lock()
	if recycle {
		idle.r = append(idle.r, r)
	} else {
		drop = append(drop, r)
	}
	if r.held {
		r.held = false
		idle.inUse--
	}
	if idle.inUse == 0 {
		if n := len(idle.r) - idle.peak; n > 0 {
			drop = append(drop, idle.r[:n]...)
			idle.r = slices.Delete(idle.r, 0, n)
		}
		idle.peak = 0
	}
	idle.mu.Unlock()
	for _, r := range drop {
		r.seq.Close()
		r.pair.Close()
	}
}

// Engine executes requests. It is safe for concurrent use: every run
// works on a runner of its own. Engines amortize kernel construction
// across every run in the process: they recycle runners from one
// process-wide idle list, and every kernel has kernel.NrCPU CPUs, so any
// idle one serves any run of any engine.
type Engine struct {
	// m holds the engine's pre-resolved metric handles (see obs.go).
	// Every lifecycle counter — kernel acquisitions, run outcomes,
	// OEMU/scheduler activity — is registry-backed.
	m *metrics
}

// Worker runs requests, one at a time, on a runner it holds from its
// first run to Close: a recycled kernel, the scheduler sessions with
// their carriers, and the tally of the runs' metrics. Its runs take no
// lock and write nothing another goroutine shares; Flush publishes the
// tallied metrics into the engine's registry. A campaign worker holds one
// for a whole campaign call and flushes it at batch barriers. Engine.Run
// is one run on a Worker of its own, then Close. A Worker is for one
// goroutine at a time.
type Worker struct {
	e *Engine
	r *runner
	// busy marks a run in progress: a run nested inside it takes a
	// runner of its own.
	busy bool
}

// Worker returns a worker running requests on e. It takes a runner at
// its first run.
func (e *Engine) Worker() *Worker { return &Worker{e: e} }

// Run executes one request under the strategy on the worker's runner.
// The config is normalized (defaults resolved) before use. Its metrics
// reach the registry at the next Flush or Close.
func (w *Worker) Run(cfg Config, s Strategy, req Request) *Result {
	return w.run(cfg, s, req, nil)
}

// run is Run with an injectable module builder (white-box tests).
func (w *Worker) run(cfg Config, s Strategy, req Request, build buildFunc) *Result {
	if w.busy {
		return w.e.run(cfg, s, req, build)
	}
	cfg.normalize()
	// A run reads the clock three times: here, once acquire has a kernel,
	// and after execution.
	start := time.Now()
	if w.r == nil {
		w.r = takeRunner()
	}
	w.busy = true
	res := w.r.run(&cfg, s, req, build, start)
	w.busy = false
	return res
}

// Flush publishes the metrics of the worker's runs since the last flush
// into its engine's registry.
func (w *Worker) Flush() {
	if w.r != nil {
		w.r.t.flush(w.e.m)
	}
}

// Close flushes the worker's metrics and returns its runner to the
// process's idle list. The worker may run again afterwards, on a runner
// it takes then. A runner whose run panicked is dropped, not recycled,
// and the carriers its sessions keep are stopped.
func (w *Worker) Close() {
	w.Flush()
	if w.r != nil {
		releaseRunner(w.r, !w.busy)
	}
	w.r, w.busy = nil, false
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

// Run executes one request under the strategy, on a runner it takes from
// the idle list and puts back, and publishes the run's metrics before it
// returns. The config is normalized (defaults resolved) before use.
func (e *Engine) Run(cfg Config, s Strategy, req Request) *Result {
	return e.run(cfg, s, req, nil)
}

// run is Run with an injectable module builder (white-box tests).
func (e *Engine) run(cfg Config, s Strategy, req Request, build buildFunc) *Result {
	w := Worker{e: e}
	defer w.Close()
	return w.run(cfg, s, req, build)
}

// run executes one request on the runner's kernel, from start on, and
// tallies the run's metrics.
func (r *runner) run(cfg *Config, s Strategy, req Request, build buildFunc, start time.Time) *Result {
	r.acquire(cfg, start)
	r.req = req
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
		r.mods.Mods = append(r.mods.Mods[:0], &synthetic)
		r.mods.Insts = append(r.mods.Insts[:0], build(k))
	} else {
		r.mods.Mods = moduleSubset(r.mods.Mods[:0], cfg, req.Prog)
		r.mods.Build(k, cfg.Bugs)
	}
	s.Attach(k, &r.req)
	r.res = newResult(req.Out)
	pair := s.Pair(&r.req, &r.plan)
	if pair {
		r.runPair()
	} else {
		r.runSequential()
	}
	res := r.res
	res.Dur = time.Since(start)
	// Metrics are observation only: counters and wall-clock timings,
	// never anything a deterministic execution depends on.
	r.t.run(s.Name(), pair, cfg.Model.Name(), res, k.Em.Counters())
	r.release()
	return res
}

// synthetic names the module-less calls a white-box buildFunc serves.
var synthetic modules.ModuleInfo

// newResult returns the result a run fills: out reset for reuse, keeping
// its slices' storage, or a fresh result when out is nil.
func newResult(out *Result) *Result {
	if out == nil {
		return new(Result)
	}
	*out = Result{
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

// moduleSubset returns the modules to build for one run of prog, in name
// order and in dst's storage: the registered modules the program's calls
// belong to, intersected with the configured universe. Building every registered
// module dominated the run profile (~40% CPU, ~2/3 of allocations) while a
// typical program touches one or two. Each distinct module is looked up
// once, and Set.Build builds from the result without looking it up again.
// The subset is a pure function of (program, config), so runs stay
// deterministic, and a call whose module is outside cfg.Modules gets no
// implementation: -ENOSYS.
func moduleSubset(dst []*modules.ModuleInfo, cfg *Config, p *syzlang.Program) []*modules.ModuleInfo {
calls:
	for i := range p.Calls {
		name := p.Calls[i].Def.Module
		for _, m := range dst {
			if m.Name == name {
				continue calls
			}
		}
		if len(cfg.Modules) > 0 && !slices.Contains(cfg.Modules, name) {
			continue
		}
		if m := modules.ByName(name); m != nil {
			dst = append(dst, m)
		}
	}
	slices.SortFunc(dst, func(a, b *modules.ModuleInfo) int { return cmp.Compare(a.Name, b.Name) })
	return dst
}

// acquire readies the runner's kernel for a run with the config's
// feature switches applied: a kernel that ran before is Reset, which
// makes it identical to a freshly-constructed one (memory content,
// sanitizer state, emulator clock, site tables). start is when the run
// began, which the acquisition latency counts from.
func (r *runner) acquire(cfg *Config, start time.Time) {
	if r.ran {
		r.k.Reset()
		r.t.n.recycled++
	} else {
		r.ran = true
		r.t.n.built++
	}
	r.t.acquireDur.Observe(time.Since(start).Seconds())
	r.k.Instrumented = cfg.Instrumented
	r.k.Sanitizers = true
}

// release drops the runner's references to a finished run's request,
// result and module instances. Results share no kernel state that Reset
// mutates in place: Cov and Soft are copies.
func (r *runner) release() {
	r.req, r.plan, r.res, r.prof = Request{}, PairPlan{}, nil, nil
	clear(r.mods.Insts)
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
func (r *runner) runSequential() {
	k, res, n := r.k, r.res, len(r.req.Prog.Calls)
	res.CallEvents = zeroed(res.CallEvents, n)
	res.Returns = zeroed(res.Returns, n)
	if k.Instrumented && r.req.Prof != nil {
		r.prof = r.req.Prof
		r.prof.Reset()
	}
	task := k.NewTask(0)
	r.tasks[0] = task
	session := r.seq
	session.Reset(sched.Sequential{})
	session.Spawn(0, 0, r.seqBody)
	aborted := session.Run()
	r.t.session(session)
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
func (r *runner) runPair() {
	k, res, plan := r.k, r.res, &r.plan
	// Calls that have not run yet (call I during the prefix) read as 0.
	r.returns = zeroed(r.returns, len(r.req.Prog.Calls))

	// Stage 1: sequential prefix.
	r.tasks[0] = k.NewTask(0)
	prefix := r.seq
	prefix.Reset(sched.Sequential{})
	prefix.Spawn(0, 0, r.prefixBody)
	aborted := prefix.Run()
	r.t.session(prefix)
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
		plan.Arm(&r.req, r.tasks[1], r.tasks[2])
	}
	session := r.pair
	session.Reset(plan.Policy)
	session.Spawn(1, 1, r.pairBody[0])
	session.Spawn(2, 2, r.pairBody[1])
	pairAborted := session.Run()
	r.t.session(session)
	classifyAbort(pairAborted, res)
	if plan.Finish != nil {
		plan.Finish(plan, res, r.tasks[1], r.tasks[2])
	}

	// Stage 3: sequential suffix (an MTI consists of the same call set as
	// its STI; calls after the pair can carry bug-detecting assertions).
	if plan.Suffix && res.Crash == nil && res.Deadlock == nil && r.req.J+1 < len(r.req.Prog.Calls) {
		suffix := r.seq
		suffix.Reset(sched.Sequential{})
		suffix.Spawn(3, 0, r.suffixBody)
		suffixAborted := suffix.Run()
		r.t.session(suffix)
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
