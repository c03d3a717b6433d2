package repair

import (
	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// Executor is the slice of the campaign environment the in-vivo closure
// check needs: pair runs under the campaign's model and under an explicit
// model table. core.Env satisfies it directly (its MTIOpts/MTIResult are
// aliases of the engine types).
type Executor interface {
	// RunMTI executes the pair under the campaign's configured model.
	RunMTI(o engine.Request) *engine.Result
	// RunMTIUnder executes the pair under an explicit model table.
	RunMTIUnder(o engine.Request, mm *memmodel.Table) *engine.Result
}

// InVivoInput is a crashing campaign finding handed to the repair search.
type InVivoInput struct {
	// Prog is the reproducer program.
	Prog *syzlang.Program
	// I and J index the racing call pair (as executed, I < J).
	I, J int
	// Hint is the scheduling hint that produced the crash: its Sched /
	// SchedOcc locate the hypothetical barrier, its Reorder sites bound
	// the candidate space.
	Hint *hints.Hint
	// Events holds the sequential profile of every call (STI
	// CallEvents); the racing pair's entries seed the litmus
	// abstraction.
	Events [][]trace.Event
	// Title is the crash (or soft-oracle) title closure must not
	// reproduce.
	Title string
	// Soft marks Title as a soft-oracle report rather than a kernel
	// crash.
	Soft bool
}

// abstraction is the litmus view of the racing pair: thread 0 is the
// reorderer's profiled window around the scheduling point, thread 1 the
// observer's accesses to the shared locations.
type abstraction struct {
	test   *lkmm.Test
	labels [][]string
	// siteOf maps thread-0 op index to its profiled instruction site (0
	// for inserted barrier ops).
	siteOf []trace.InstrID
	// schedOp is the thread-0 op index of the scheduling-point access.
	schedOp int
}

// maxObserverOps caps the observer thread's abstraction width so the
// reference enumeration stays tractable on access-heavy reproducers.
const maxObserverOps = 8

// abstract builds the litmus abstraction of the racing pair, or nil when
// the hint's scheduling point or reorder sites cannot be located in the
// profile (nothing to search over).
func abstract(in InVivoInput) *abstraction {
	h := in.Hint
	ri, oi := in.I, in.J
	if h.Reorderer == 1 {
		ri, oi = in.J, in.I
	}
	if ri >= len(in.Events) || oi >= len(in.Events) {
		return nil
	}
	rev, oev := in.Events[ri], in.Events[oi]

	// Locate the scheduling-point access the way the engine's breakpoint
	// does: the SchedOcc'th dynamic occurrence of the site (non-NoYield
	// occurrences counted) with the matching access kind.
	schedIdx := -1
	occ := 0
	for idx, e := range rev {
		if e.Barrier || e.Acc.Instr != h.Sched || e.Acc.Kind != h.SchedKind {
			continue
		}
		if !e.Acc.NoYield {
			occ++
		}
		if occ == h.SchedOcc {
			schedIdx = idx
			break
		}
	}
	if schedIdx < 0 {
		return nil
	}
	inReorder := map[trace.InstrID]bool{}
	for _, s := range h.Reorder {
		inReorder[s] = true
	}

	// Pick the representative event of each reorder site: for a store
	// test the last matching store before the scheduling point (the one
	// OEMU leaves delayed when the reorderer yields), for a load test
	// the first matching load after it (the one versioned earliest).
	chosen := map[int]bool{}
	picked := map[trace.InstrID]int{}
	if h.Test == hints.StoreBarrierTest {
		for idx := 0; idx < schedIdx; idx++ {
			e := rev[idx]
			if !e.Barrier && e.Acc.Kind == trace.Store && inReorder[e.Acc.Instr] {
				picked[e.Acc.Instr] = idx
			}
		}
	} else {
		for idx := schedIdx + 1; idx < len(rev); idx++ {
			e := rev[idx]
			if !e.Barrier && e.Acc.Kind == trace.Load && inReorder[e.Acc.Instr] {
				if _, ok := picked[e.Acc.Instr]; !ok {
					picked[e.Acc.Instr] = idx
				}
			}
		}
	}
	if len(picked) == 0 {
		return nil
	}
	lo, hi := schedIdx, schedIdx
	for _, idx := range picked {
		if idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
	}
	for _, idx := range picked {
		chosen[idx] = true
	}
	chosen[schedIdx] = true

	a := &abstraction{test: &lkmm.Test{Name: in.Title}}
	locOf := map[trace.Addr]int{}
	valNext := map[int]uint64{}
	loc := func(addr trace.Addr) int {
		if l, ok := locOf[addr]; ok {
			return l
		}
		l := len(locOf)
		locOf[addr] = l
		return l
	}
	regs := 0
	var t0 []lkmm.Op
	var l0 []string
	for idx := lo; idx <= hi; idx++ {
		e := rev[idx]
		if e.Barrier {
			// Explicit barriers in the window stay; implicit ones are an
			// annotated access's side effect and would double-count.
			if !e.Bar.Implicit {
				t0 = append(t0, lkmm.Op{Kind: lkmm.OpBarrier, Bar: e.Bar.Kind})
				l0 = append(l0, modules.SiteName(e.Bar.Instr))
				a.siteOf = append(a.siteOf, 0)
			}
			continue
		}
		if !chosen[idx] {
			continue
		}
		l := loc(e.Acc.Addr)
		op := lkmm.Op{Atomic: e.Acc.Atomic}
		if e.Acc.Kind == trace.Store {
			valNext[l]++
			op.Kind, op.Loc, op.Val = lkmm.OpStore, l, valNext[l]
		} else {
			op.Kind, op.Loc, op.Reg = lkmm.OpLoad, l, regs
			regs++
		}
		if idx == schedIdx {
			a.schedOp = len(t0)
		}
		t0 = append(t0, op)
		l0 = append(l0, modules.SiteName(e.Acc.Instr))
		a.siteOf = append(a.siteOf, e.Acc.Instr)
	}

	// Observer thread: its first access per site to the shared
	// locations, plus explicit barriers inside the retained span. Loads
	// become outcome registers only in a store test — there the
	// observer's reads witness the reordering; in a load test the
	// reorderer's own loads do, and observer loads would pollute the
	// outcome space with behaviours no reorderer-side fence can forbid.
	keepLoads := h.Test == hints.StoreBarrierTest
	type kept struct {
		e   trace.Event
		idx int
	}
	var keep []kept
	seen := map[trace.InstrID]bool{}
	for idx, e := range oev {
		if e.Barrier {
			continue
		}
		if _, shared := locOf[e.Acc.Addr]; !shared || seen[e.Acc.Instr] {
			continue
		}
		if e.Acc.Kind == trace.Load && !keepLoads {
			continue
		}
		seen[e.Acc.Instr] = true
		keep = append(keep, kept{e, idx})
		if len(keep) >= maxObserverOps {
			break
		}
	}
	if len(keep) > 0 {
		first, last := keep[0].idx, keep[len(keep)-1].idx
		var t1 []lkmm.Op
		var l1 []string
		ki := 0
		for idx := first; idx <= last; idx++ {
			e := oev[idx]
			if e.Barrier {
				if !e.Bar.Implicit {
					t1 = append(t1, lkmm.Op{Kind: lkmm.OpBarrier, Bar: e.Bar.Kind})
					l1 = append(l1, modules.SiteName(e.Bar.Instr))
				}
				continue
			}
			if ki < len(keep) && keep[ki].idx == idx {
				ki++
				l := locOf[e.Acc.Addr]
				op := lkmm.Op{Atomic: e.Acc.Atomic}
				if e.Acc.Kind == trace.Store {
					valNext[l]++
					op.Kind, op.Loc, op.Val = lkmm.OpStore, l, valNext[l]
				} else {
					op.Kind, op.Loc, op.Reg = lkmm.OpLoad, l, regs
					regs++
				}
				t1 = append(t1, op)
				l1 = append(l1, modules.SiteName(e.Acc.Instr))
			}
		}
		a.test.Threads = [][]lkmm.Op{t0, t1}
		a.labels = [][]string{l0, l1}
	} else {
		a.test.Threads = [][]lkmm.Op{t0}
		a.labels = [][]string{l0}
	}
	a.test.NumLocs = len(locOf)
	a.test.NumRegs = regs
	return a
}

// remainingSites computes which of the hint's reorder sites are still
// reorderable once the candidate's fences take effect under mm, by
// replaying each fence's ordering semantics over the thread-0 abstraction.
func (a *abstraction) remainingSites(h *hints.Hint, fences []Fence, mm *memmodel.Table) []trace.InstrID {
	inReorder := map[trace.InstrID]bool{}
	for _, s := range h.Reorder {
		inReorder[s] = true
	}
	// alive holds the thread-0 op indexes whose sites remain directive
	// targets.
	alive := map[int]bool{}
	for i, site := range a.siteOf {
		if site != 0 && i != a.schedOp && inReorder[site] {
			alive[i] = true
		}
	}
	for _, f := range fences {
		if f.thread != 0 {
			continue
		}
		if h.Test == hints.StoreBarrierTest {
			switch {
			case f.Action == ActionInsert && mm.OrdersStores(f.bar):
				// Stores before the barrier can no longer be delayed
				// past it (and past the scheduling point beyond it).
				for i := range alive {
					if i < f.pos {
						delete(alive, i)
					}
				}
			case f.Action == ActionStrengthen && f.atom == trace.AtomicRelease:
				if mm.Release(trace.AtomicRelease) {
					// A release store drains everything before it and
					// commits in place.
					for i := range alive {
						if i <= f.pos {
							delete(alive, i)
						}
					}
				} else if !mm.Delayable(trace.AtomicRelease) {
					delete(alive, f.pos)
				}
			}
		} else {
			switch {
			case f.Action == ActionInsert && mm.OrdersLoads(f.bar):
				// Loads after the barrier can no longer read stale
				// values from before it.
				for i := range alive {
					if i >= f.pos {
						delete(alive, i)
					}
				}
			case f.Action == ActionStrengthen && f.atom == trace.AtomicAcquire:
				if !mm.Versionable(trace.AtomicAcquire) {
					delete(alive, f.pos)
				}
				if mm.LoadBarrier(trace.AtomicAcquire) {
					for i := range alive {
						if i > f.pos {
							delete(alive, i)
						}
					}
				}
			}
		}
	}
	// Emit surviving sites in the hint's original order (deduplicated —
	// several ops can share a site only if profiling repeated it, and
	// Reorder itself is site-unique).
	aliveSite := map[trace.InstrID]bool{}
	for i := range alive {
		aliveSite[a.siteOf[i]] = true
	}
	var out []trace.InstrID
	for _, s := range h.Reorder {
		if aliveSite[s] {
			out = append(out, s)
		}
	}
	return out
}

// siteSubsets enumerates the directive-site subsets a closure probe
// re-runs: every non-empty subset when the set is small, otherwise the
// full set plus each singleton. An empty remainder yields one nil entry —
// the triage-style NoReorder run.
func siteSubsets(sites []trace.InstrID) [][]trace.InstrID {
	if len(sites) == 0 {
		return [][]trace.InstrID{nil}
	}
	if len(sites) <= 3 {
		var out [][]trace.InstrID
		for mask := 1; mask < 1<<len(sites); mask++ {
			var sub []trace.InstrID
			for i, s := range sites {
				if mask&(1<<i) != 0 {
					sub = append(sub, s)
				}
			}
			out = append(out, sub)
		}
		return out
	}
	out := [][]trace.InstrID{sites}
	for _, s := range sites {
		out = append(out, []trace.InstrID{s})
	}
	return out
}

// closureSeeds is the number of engine seeds each in-vivo closure probe
// re-executes the reproducer under.
const closureSeeds = 3

// closes is the in-vivo closure oracle: re-execute the reproducer with
// the candidate's surviving reorder directives installed, across
// closureSeeds seeds and every directive subset; the crash must never
// reproduce.
func (a *abstraction) closes(in InVivoInput, ex Executor, primary *memmodel.Table, fences []Fence, mm *memmodel.Table) bool {
	remaining := a.remainingSites(in.Hint, fences, mm)
	for seed := 0; seed < closureSeeds; seed++ {
		for _, sub := range siteSubsets(remaining) {
			req := engine.Request{
				Prog: in.Prog,
				I:    in.I,
				J:    in.J,
				Hint: in.Hint.WithReorder(sub),
				Seed: int64(seed),
			}
			if len(sub) == 0 {
				// Nothing left to reorder: the triage-style schedule-only
				// re-run must stay clean too.
				req.Hint = in.Hint
				req.NoReorder = true
			}
			var res *engine.Result
			if mm == primary {
				res = ex.RunMTI(req)
			} else {
				res = ex.RunMTIUnder(req, mm)
			}
			if reproduced(res, in) {
				return false
			}
		}
	}
	return true
}

// reproduced reports whether an engine result re-triggered the finding.
func reproduced(res *engine.Result, in InVivoInput) bool {
	if res == nil {
		return false
	}
	if in.Soft {
		for _, s := range res.Soft {
			if s == in.Title {
				return true
			}
		}
		return false
	}
	return res.Crash != nil && res.Crash.Title == in.Title
}

// InVivo searches for the minimal fence repair of a crashing campaign
// finding. The racing pair is abstracted into a litmus test (thread 0 the
// reorderer's window around the scheduling point, thread 1 the observer's
// shared accesses); legality runs the reference enumerator over it, and
// closure re-executes the real reproducer through the engine with the
// candidate's surviving directives installed. Fences are placed only on
// the reorderer's side — the hypothetical-barrier location the hint
// names.
func InVivo(in InVivoInput, ex Executor, opts Options) *Result {
	kind := in.Hint.Type()
	a := abstract(in)
	if a == nil {
		opts.Metrics.search()
		return &Result{Target: in.Title, Kind: kind, Model: opts.model().Name()}
	}
	p := newProblem(a.test, a.labels, opts, 0)
	p.closure = func(fences []Fence, mm *memmodel.Table) bool {
		return a.closes(in, ex, p.primary, fences, mm)
	}
	return p.run(in.Title, kind)
}
