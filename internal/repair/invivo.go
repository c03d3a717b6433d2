package repair

import (
	"slices"

	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/trace"
)

// Executor runs the in-vivo closure check's re-runs of a finding under
// an explicit model table. core.Env satisfies it directly (its
// MTIOpts/MTIResult are aliases of the engine types).
type Executor interface {
	RunMTIUnder(o engine.Request, mm *memmodel.Table) *engine.Result
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

// abstract builds the litmus abstraction of the finding's racing pair
// from events, the sequential profile of every call of its program (STI
// CallEvents), or nil when there is nothing to search over: the hint's
// scheduling point or reorder sites cannot be located in the profile, or
// the abstraction with maxFences barriers inserted into thread 0 — the
// largest repaired test a search builds — does not fit the reference
// model (model.Fits).
func abstract(f *engine.Finding, events [][]trace.Event, maxFences int) *abstraction {
	h := f.Hint
	ri, oi := f.I, f.J
	if h.Reorderer == 1 {
		ri, oi = f.J, f.I
	}
	if ri >= len(events) || oi >= len(events) {
		return nil
	}
	rev, oev := events[ri], events[oi]

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

	a := &abstraction{test: &lkmm.Test{Name: f.Title}}
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
	widest := *a.test
	widest.Threads = slices.Clone(a.test.Threads)
	widest.Threads[0] = slices.Clip(t0)
	for range maxFences {
		widest.Threads[0] = append(widest.Threads[0], lkmm.Op{Kind: lkmm.OpBarrier})
	}
	if !model.Fits(&widest) {
		return nil
	}
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
// the triage run.
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

// closes is the in-vivo closure oracle: re-execute the finding under mm
// with the candidate's surviving reorder directives installed, across
// closureSeeds seeds and every directive subset; the finding must never
// reproduce.
func (a *abstraction) closes(f *engine.Finding, ex Executor, fences []Fence, mm *memmodel.Table) bool {
	remaining := a.remainingSites(f.Hint, fences, mm)
	for seed := 0; seed < closureSeeds; seed++ {
		for _, sub := range siteSubsets(remaining) {
			req := f.Request(sub, nil)
			req.Seed = int64(seed)
			if f.Reproduced(ex.RunMTIUnder(req, mm)) {
				return false
			}
		}
	}
	return true
}

// InVivo searches for the minimal fence repair of a campaign finding.
// events is the sequential profile of every call of the finding's
// program (STI CallEvents); the racing pair's entries seed the litmus
// abstraction (thread 0 the reorderer's window around the scheduling
// point, thread 1 the observer's shared accesses). Legality searches the
// reference model over it, and closure re-executes the finding through
// the engine with the candidate's surviving directives installed. Fences
// are placed only on the reorderer's side — the hypothetical-barrier
// location the hint names.
func InVivo(f engine.Finding, events [][]trace.Event, ex Executor, opts Options) *Result {
	kind := f.Hint.Type()
	a := abstract(&f, events, opts.maxFences())
	if a == nil {
		res := &Result{Target: f.Title, Kind: kind, Model: opts.model().Name()}
		opts.Metrics.publish(res)
		return res
	}
	p := newProblem(a.test, a.labels, opts, 0)
	p.closure = func(fences []Fence, mm *memmodel.Table) bool {
		return a.closes(&f, ex, fences, mm)
	}
	return p.run(f.Title, kind)
}
