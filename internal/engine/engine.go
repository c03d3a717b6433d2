// Package engine owns the execution lifecycle every OZZ path shares:
// kernel acquisition (with sync.Pool recycling via Reset), module
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
	// first-hit order. The result owns the slice: it is a copy of the
	// kernel's edge set, which the kernel's next Reset clears.
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
	// args holds the resolved arguments of the call each task is in:
	// slot 0 for the sequential task, 1 and 2 for the pair's tasks.
	args [3][]uint64
	// returns holds a pair run's call results.
	returns []uint64
	// mods and insts are the run's syscall table: insts[i] is the built
	// instance of module mods[i] and serves the calls whose def names it.
	mods  []string
	insts []modules.Instance
}

// impl returns the implementation of call c, or nil when its module was
// not built.
func (r *runner) impl(c *syzlang.Call) modules.Impl {
	for i, m := range r.mods {
		if m == c.Def.Module {
			return r.insts[i][c.Def.Name]
		}
	}
	return nil
}

// Engine executes requests. It is safe for concurrent use: the kernel
// recycler is internally synchronized, and every run works on its own
// kernel. One Engine instance amortizes kernel construction across all
// runs sharing it, whatever their Config.
type Engine struct {
	// kpool recycles runners across executions: Reset on a used kernel
	// is much cheaper than rebuilding memory pages, emulator maps, and
	// allocator state from scratch. sync.Pool is concurrency-safe, so
	// parallel campaign workers share one recycler.
	kpool sync.Pool

	// m holds the engine's pre-resolved metric handles (see obs.go).
	// Every lifecycle counter — kernel acquisitions, run outcomes,
	// OEMU/scheduler activity — is registry-backed.
	m *metrics
}

// New returns an engine with its own private metrics registry (retrieve
// it with Obs). Equivalent to NewObs(nil).
func New() *Engine { return NewObs(nil) }

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
	r.insts = r.insts[:0]
	if build != nil {
		r.mods = append(r.mods[:0], "")
		r.insts = append(r.insts, build(k))
	} else {
		r.mods = moduleSubset(r.mods[:0], &cfg, req.Prog)
		for _, n := range r.mods {
			r.insts = append(r.insts, modules.ByName(n).New(k, cfg.Bugs))
		}
	}
	s.Attach(k, &req)
	var res *Result
	plan := s.Pair(&cfg, &req)
	if plan != nil {
		res = e.runPair(r, &req, plan)
	} else {
		res = e.runSequential(r, &cfg, &req)
	}
	// Publication is observation only: counters and wall-clock timings,
	// never anything a deterministic execution depends on.
	e.m.publishRun(s.Name(), plan != nil, cfg.Model.Name(), time.Since(start), res, k.Em.Counters())
	e.release(r)
	return res
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

// KernelCounters reports how many kernel acquisitions were recycled from
// the pool vs. built fresh.
func (e *Engine) KernelCounters() (recycled, built uint64) {
	return e.m.kernelRecycled.Value(), e.m.kernelBuilt.Value()
}

// RecycleRate returns the fraction of kernel acquisitions served by the
// recycler (0 before the first run).
func (e *Engine) RecycleRate() float64 {
	r, b := e.KernelCounters()
	if r+b == 0 {
		return 0
	}
	return float64(r) / float64(r+b)
}

// acquire returns a runner — recycled from the pool when possible — whose
// kernel has the config's feature switches applied. The kernel is
// identical to a freshly-constructed one: Reset restores every observable
// property (memory content, sanitizer state, emulator clock, site tables).
func (e *Engine) acquire(cfg *Config) *runner {
	start := time.Now()
	var r *runner
	if v := e.kpool.Get(); v != nil {
		r = v.(*runner)
		r.k.Reset()
		e.m.kernelRecycled.Inc()
	} else {
		r = &runner{k: kernel.New(cfg.NrCPU)}
		e.m.kernelBuilt.Inc()
	}
	e.m.acquireDur.Observe(time.Since(start).Seconds())
	r.k.Instrumented = cfg.Instrumented
	r.k.Sanitizers = cfg.Sanitizers
	return r
}

// release returns a runner to the recycler once an execution has finished
// with it. Results must not share kernel state that Reset mutates in
// place: Cov is handed out as a copy (covEdges), and Soft survives because
// Reset replaces the slice rather than truncating it.
func (e *Engine) release(r *runner) {
	clear(r.insts)
	e.kpool.Put(r)
}

// covEdges copies a run's coverage set into a slice of exactly its size.
func covEdges(cov *kernel.EdgeSet) []uint64 {
	out := make([]uint64, cov.Len())
	copy(out, cov.Edges())
	return out
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
func execCall(t *kernel.Task, r *runner, slot int, c *syzlang.Call, ci int) {
	r.args[slot] = resolveArgs(r.args[slot], c, r.returns)
	impl := r.impl(c)
	if impl == nil {
		r.returns[ci] = enosys
		return
	}
	r.returns[ci] = impl(t, r.args[slot])
	t.SyscallReturn()
}

// runSequential executes the whole program on one task — the STI
// profiling path and the syzkaller baseline.
func (e *Engine) runSequential(r *runner, cfg *Config, req *Request) *Result {
	k, p := r.k, req.Prog
	res := &Result{
		CallEvents: make([][]trace.Event, len(p.Calls)),
		Returns:    make([]uint64, len(p.Calls)),
	}
	var prof *trace.Buffer
	if cfg.Instrumented && req.Prof != nil {
		prof = req.Prof
		prof.Reset()
	}
	task := k.NewTask(0)
	// Every call records after the previous one in prof; call ci's
	// profile is the view of what it recorded from start on.
	var ci, start int
	session := sched.NewSession(sched.Sequential{})
	session.Spawn(0, 0, func(st *sched.Task) {
		task.Bind(st)
		for ci = range p.Calls {
			c := &p.Calls[ci]
			r.args[0] = resolveArgs(r.args[0], c, res.Returns)
			if impl := r.impl(c); impl != nil {
				if prof != nil {
					start = prof.Len()
					task.Prof = prof
				}
				res.Returns[ci] = impl(task, r.args[0])
				task.SyscallReturn()
				if prof != nil {
					res.CallEvents[ci] = prof.Since(start)
					task.Prof = nil
				}
			} else {
				res.Returns[ci] = enosys
			}
		}
	})
	aborted := session.Run()
	e.m.observeSession(session)
	session.Release()
	// A crash leaves call ci's profile attached: keep what it recorded.
	if task.Prof != nil {
		res.CallEvents[ci] = prof.Since(start)
		task.Prof = nil
	}
	classifyAbort(aborted, res)
	res.Cov = covEdges(&k.Cov)
	res.Soft = k.Soft
	return res
}

// runPair executes the prefix/pair(/suffix) shape: the program's calls
// before J (except I) run sequentially to build kernel state; then the
// plan's two calls run concurrently on CPUs 1 and 2 under its policy
// (Fig. 5).
func (e *Engine) runPair(r *runner, req *Request, plan *PairPlan) *Result {
	k, p := r.k, req.Prog
	res := &Result{}
	// Calls that have not run yet (call I during the prefix) read as 0.
	r.returns = append(r.returns[:0], make([]uint64, len(p.Calls))...)

	// Stage 1: sequential prefix.
	prefixTask := k.NewTask(0)
	prefix := sched.NewSession(sched.Sequential{})
	prefix.Spawn(0, 0, func(st *sched.Task) {
		prefixTask.Bind(st)
		for ci := 0; ci < req.J; ci++ {
			if ci == req.I {
				continue
			}
			execCall(prefixTask, r, 0, &p.Calls[ci], ci)
		}
	})
	aborted := prefix.Run()
	e.m.observeSession(prefix)
	prefix.Release()
	if aborted != nil {
		classifyAbort(aborted, res)
		res.PrefixCrash = true
		res.Cov = covEdges(&k.Cov)
		return res
	}

	// Stage 2: the concurrent pair under the plan's policy, with the
	// plan's directives/observers armed on the fresh tasks.
	taskA := k.NewTask(1)
	taskB := k.NewTask(2)
	if plan.Arm != nil {
		plan.Arm(taskA, taskB)
	}
	session := sched.NewSession(plan.Policy)
	runPair := func(task *kernel.Task, slot, ci int) func(*sched.Task) {
		return func(st *sched.Task) {
			task.Bind(st)
			execCall(task, r, slot, &p.Calls[ci], ci)
		}
	}
	session.Spawn(1, 1, runPair(taskA, 1, plan.CallA))
	session.Spawn(2, 2, runPair(taskB, 2, plan.CallB))
	pairAborted := session.Run()
	e.m.observeSession(session)
	classifyAbort(pairAborted, res)
	if plan.Finish != nil {
		plan.Finish(res, taskA, taskB)
	}
	session.Release()

	// Stage 3: sequential suffix (an MTI consists of the same call set as
	// its STI; calls after the pair can carry bug-detecting assertions).
	if plan.Suffix && res.Crash == nil && res.Deadlock == nil && req.J+1 < len(p.Calls) {
		suffix := sched.NewSession(sched.Sequential{})
		suffix.Spawn(3, 0, func(st *sched.Task) {
			prefixTask.Bind(st)
			for ci := req.J + 1; ci < len(p.Calls); ci++ {
				execCall(prefixTask, r, 0, &p.Calls[ci], ci)
			}
		})
		suffixAborted := suffix.Run()
		e.m.observeSession(suffix)
		suffix.Release()
		classifyAbort(suffixAborted, res)
	}
	res.Soft = k.Soft
	res.Cov = covEdges(&k.Cov)
	return res
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
