package repair

import (
	"cmp"
	"slices"
	"sort"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// Options configures a repair search.
type Options struct {
	// Model is the primary memory model candidates must be legal (and,
	// in vivo, closing) under; nil selects the registered "lkmm" table.
	Model *memmodel.Table
	// MaxFences bounds the candidate size (default 2). The search stops
	// at the first size class that validates at least one candidate, so
	// suggestions are always minimal-size.
	MaxFences int
	// Metrics, when non-nil, receives ozz_repair_* counter increments.
	Metrics *Metrics
}

func (o Options) model() *memmodel.Table {
	if o.Model != nil {
		return o.Model
	}
	return memmodel.LKMM
}

func (o Options) maxFences() int {
	if o.MaxFences <= 0 {
		return 2
	}
	return o.MaxFences
}

// problem is one repair search over a litmus abstraction of the racing
// pair: the test, per-op display labels, the primary model, and a closure
// oracle (nil in litmus mode, where legality decides alone).
type problem struct {
	test    *lkmm.Test
	labels  [][]string
	primary *memmodel.Table
	opts    Options
	// restrict limits fence placement to one thread (the reorderer's
	// abstraction, in vivo); -1 allows every thread (litmus mode).
	restrict int
	// closure is the in-vivo closure oracle; nil passes every candidate.
	closure func(fences []Fence, mm *memmodel.Table) bool
	// enumerate is the reference enumerator behind buggy sets
	// (model.Reacher.RunModel), asked with the problem's enum Reacher.
	enumerate func(r *model.Reacher, t *lkmm.Test, mm *memmodel.Table) *model.Result
	// reach is the reference reachability check behind legality
	// (model.Reacher.Reaches), asked with the searchers' Reacher.
	reach func(r *model.Reacher, t *lkmm.Test, mm *memmodel.Table, targets [][]uint64) bool

	// searchers is the storage of every legality check, kept for the
	// whole search: every candidate's repaired test has the
	// unrepaired test's stores, loads, locations and registers, so the
	// storage fits them all.
	searchers searchers

	// enum is the storage of the buggy-set enumerations: the SC
	// baseline and each model enumerate the same test.
	enum  model.Reacher
	buggy map[string]*buggyOutcomes
	sc    map[lkmm.Outcome]bool
}

// searchers is the search's check storage: the reference model's
// Reacher for legality, the repaired test each check builds and then
// searches, and the drop-one sub-candidate a minimality check builds.
type searchers struct {
	legal model.Reacher
	fix   repairedTest
	sub   []Fence
}

// repairedTest is storage a repaired test is built into, reused from one
// candidate to the next.
type repairedTest struct {
	test lkmm.Test
	// src is the unrepaired test the name was derived from.
	src *lkmm.Test
	// ops backs every thread's ops.
	ops []lkmm.Op
}

// buggyOutcomes is the buggy set under one model, rendered and as the
// register vectors legality searches for.
type buggyOutcomes struct {
	outcomes []lkmm.Outcome
	regs     [][]uint64
}

func newProblem(test *lkmm.Test, labels [][]string, opts Options, restrict int) *problem {
	return &problem{
		test:      test,
		labels:    labels,
		primary:   opts.model(),
		opts:      opts,
		restrict:  restrict,
		enumerate: (*model.Reacher).RunModel,
		reach:     (*model.Reacher).Reaches,
		buggy:     map[string]*buggyOutcomes{},
	}
}

// buggySet returns the weak-only outcomes of the unrepaired test under mm:
// reference-enumerator outcomes minus the SC baseline's. These are the
// behaviours a repair must forbid. Each model's set is derived once per
// problem, and its outcomes are parsed into register vectors then.
func (p *problem) buggySet(mm *memmodel.Table) *buggyOutcomes {
	if b, ok := p.buggy[mm.Name()]; ok {
		return b
	}
	if p.sc == nil {
		p.sc = p.enumerate(&p.enum, p.test, scBaseline).Outcomes
	}
	weak := p.enumerate(&p.enum, p.test, mm)
	b := &buggyOutcomes{}
	for _, s := range weak.Sorted() {
		if o := lkmm.Outcome(s); !p.sc[o] {
			b.outcomes = append(b.outcomes, o)
			b.regs = append(b.regs, o.Regs())
		}
	}
	p.buggy[mm.Name()] = b
	return b
}

// singleFences enumerates every single-fence candidate in a fixed order:
// barrier insertions at every gap of every (allowed) thread, then
// annotation strengthenings, sorted by (weight, thread, position, kind) so
// the candidate walk — and therefore the whole search — is
// deterministic across runs.
func (p *problem) singleFences() []Fence {
	var out []Fence
	for t, ops := range p.test.Threads {
		if p.restrict >= 0 && t != p.restrict {
			continue
		}
		for g := 1; g < len(ops); g++ {
			for _, bk := range []trace.BarrierKind{trace.BarrierStore, trace.BarrierLoad, trace.BarrierFull} {
				// Re-inserting a barrier right next to an identical one
				// is a no-op candidate; skip it.
				if (ops[g-1].Kind == lkmm.OpBarrier && ops[g-1].Bar == bk) ||
					(ops[g].Kind == lkmm.OpBarrier && ops[g].Bar == bk) {
					continue
				}
				out = append(out, Fence{
					Action:  ActionInsert,
					Barrier: bk.String(),
					After:   p.labels[t][g-1],
					Before:  p.labels[t][g],
					thread:  t,
					pos:     g,
					bar:     bk,
					weight:  insertWeight(bk),
				})
			}
		}
		for i, op := range ops {
			switch {
			case op.Kind == lkmm.OpStore && op.Atomic != trace.AtomicRelease:
				out = append(out, Fence{
					Action: ActionStrengthen,
					Site:   p.labels[t][i],
					To:     trace.BarrierRelease.String(),
					thread: t,
					pos:    i,
					atom:   trace.AtomicRelease,
					weight: 2,
				})
			case op.Kind == lkmm.OpLoad && op.Atomic != trace.AtomicAcquire:
				out = append(out, Fence{
					Action: ActionStrengthen,
					Site:   p.labels[t][i],
					To:     trace.BarrierAcquire.String(),
					thread: t,
					pos:    i,
					atom:   trace.AtomicAcquire,
					weight: 2,
				})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].weight != out[b].weight {
			return out[a].weight < out[b].weight
		}
		if out[a].thread != out[b].thread {
			return out[a].thread < out[b].thread
		}
		if out[a].pos != out[b].pos {
			return out[a].pos < out[b].pos
		}
		return out[a].Action < out[b].Action
	})
	return out
}

// nextCombination advances idx, a subset of {0, ..., n-1} as ascending
// indexes, to its successor in lexicographic order, in place, and reports
// false when idx was the last subset of its size.
func nextCombination(idx []int, n int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// rank returns the position of idx with its entry at drop removed (drop
// -1 removes none), a subset of {0, ..., n-1} as ascending indexes, among
// the subsets of its size in the order nextCombination walks them. Each
// entry counts the subsets that share the entries before it and hold a
// smaller index in its place.
func rank(idx []int, drop, n int) int {
	k := len(idx)
	if drop >= 0 {
		k--
	}
	r, prev, pos := 0, -1, 0
	for i, c := range idx {
		if i == drop {
			continue
		}
		for j := prev + 1; j < c; j++ {
			r += binomial(n-1-j, k-1-pos)
		}
		prev = c
		pos++
	}
	return r
}

// binomial returns n choose k, the number of size-k candidates of n
// single fences.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// build builds the repaired litmus test into b and returns it, valid
// until the next build: barriers spliced into their gaps (several in one
// gap in ascending kind order), strengthened ops re-annotated. Candidates
// hold a handful of fences, so each gap and op scans them all instead of
// indexing them by position; the scans take each Fence by pointer, since
// a Fence is six strings and more, too large to copy per scan. Every
// thread's ops share one array.
func (b *repairedTest) build(t *lkmm.Test, fences []Fence) *lkmm.Test {
	if b.src != t {
		b.src = t
		b.test.Name = t.Name + "+fix"
	}
	nt := &b.test
	nt.NumLocs, nt.NumRegs = t.NumLocs, t.NumRegs
	nt.Threads = slices.Grow(nt.Threads[:0], len(t.Threads))[:len(t.Threads)]
	// An insertion adds one op, a strengthening none.
	all := slices.Grow(b.ops[:0], t.NumOps()+len(fences))
	for ti, ops := range t.Threads {
		start := len(all)
		for i := 0; i <= len(ops); i++ {
			gap := len(all)
			for k := range fences {
				if f := &fences[k]; f.Action == ActionInsert && f.thread == ti && f.pos == i {
					all = append(all, lkmm.Op{Kind: lkmm.OpBarrier, Bar: f.bar})
				}
			}
			slices.SortFunc(all[gap:], func(a, b lkmm.Op) int { return cmp.Compare(a.Bar, b.Bar) })
			if i == len(ops) {
				break
			}
			op := ops[i]
			for k := range fences {
				if f := &fences[k]; f.Action == ActionStrengthen && f.thread == ti && f.pos == i {
					op.Atomic = f.atom
				}
			}
			all = append(all, op)
		}
		nt.Threads[ti] = all[start:len(all):len(all)]
	}
	b.ops = all
	return nt
}

// checkLegal asks the reference model whether the repaired test can
// still reach a buggy outcome; the search stops at the first one. It
// builds and searches the test in the problem's storage, so once that
// is warm it allocates nothing.
func (p *problem) checkLegal(fences []Fence, mm *memmodel.Table) bool {
	s := &p.searchers
	return !p.reach(&s.legal, s.fix.build(p.test, fences), mm, p.buggySet(mm).regs)
}

// closes reports whether the candidate closes the bug under mm in the
// live engine: the in-vivo oracle's verdict. Litmus mode has no oracle,
// so there the reference model's legality verdict decides alone.
func (p *problem) closes(fences []Fence, mm *memmodel.Table) bool {
	return p.closure == nil || p.closure(fences, mm)
}

// legality is a primary-model legality verdict the search keeps for a
// candidate of a size class, until the next size's minimality checks
// have read it.
type legality uint8

const (
	unchecked legality = iota
	legal
	illegal
)

func legalityOf(ok bool) legality {
	if ok {
		return legal
	}
	return illegal
}

// Candidate verdict codes.
const (
	vOK = iota
	vIllegal
	vUnclosed
	vNonMinimal
)

// validate runs the primary model's check chain on one candidate, the
// fences at ascending indexes idx into n singles: minimality (every
// drop-one sub-candidate must be illegal), legality, then closure.
// below holds the previous size class's legality verdicts by rank; a
// sub-candidate with none there, one minimality rejected before its own
// legality check, is checked now and its verdict kept. The candidate's
// own legality verdict is stored in *own.
func (p *problem) validate(fences []Fence, idx []int, n int, below []legality, own *legality) int {
	if len(fences) > 1 {
		for drop := range fences {
			v := &below[rank(idx, drop, n)]
			if *v == unchecked {
				sub := append(p.searchers.sub[:0], fences[:drop]...)
				p.searchers.sub = append(sub, fences[drop+1:]...)
				*v = legalityOf(p.checkLegal(p.searchers.sub, p.primary))
			}
			if *v == legal {
				return vNonMinimal
			}
		}
	}
	if *own = legalityOf(p.checkLegal(fences, p.primary)); *own == illegal {
		return vIllegal
	}
	if !p.closes(fences, p.primary) {
		return vUnclosed
	}
	return vOK
}

// modelReports probes a validated candidate under every registered
// memory model. validate has found it legal and closing under the
// primary model, so only the closure runs again there: an in-vivo
// closure's engine runs are part of every run count.
func (p *problem) modelReports(fences []Fence) []ModelReport {
	var out []ModelReport
	for _, mm := range memmodel.All() {
		status := StatusInsufficient
		switch {
		case len(p.buggySet(mm).outcomes) == 0:
			status = StatusUnnecessary
		case mm.Name() == p.primary.Name():
			if p.closes(fences, mm) {
				status = StatusFixes
			}
		case p.checkLegal(fences, mm) && p.closes(fences, mm):
			status = StatusFixes
		}
		out = append(out, ModelReport{Model: mm.Name(), Status: status})
	}
	return out
}

// run executes the ascending-size search and assembles the ranked Result.
// Each size class walks its candidates in lexicographic order in one
// reused index tuple, and keeps their legality verdicts by rank for the
// next size's minimality checks, so each (fence set, model) is checked
// at most once.
func (p *problem) run(target, kind string) *Result {
	res := &Result{Target: target, Kind: kind, Model: p.primary.Name()}
	defer p.opts.Metrics.publish(res)
	for _, o := range p.buggySet(p.primary).outcomes {
		res.BuggyOutcomes = append(res.BuggyOutcomes, string(o))
	}
	if len(res.BuggyOutcomes) == 0 {
		return res
	}
	singles := p.singleFences()
	n := len(singles)
	var below []legality
	var idx []int
	var fences []Fence
	for size := 1; size <= min(p.opts.maxFences(), n) && len(res.Suggestions) == 0; size++ {
		verdicts := make([]legality, binomial(n, size))
		res.Stats.Enumerated += len(verdicts)
		idx = append(idx, size-1)
		for i := range idx {
			idx[i] = i
		}
		for r := range verdicts {
			if r > 0 {
				nextCombination(idx, n)
			}
			fences = fences[:0]
			for _, j := range idx {
				fences = append(fences, singles[j])
			}
			switch p.validate(fences, idx, n, below, &verdicts[r]) {
			case vOK:
				res.Stats.Validated++
				res.Suggestions = append(res.Suggestions, &Suggestion{
					Fences: slices.Clone(fences),
					Models: p.modelReports(fences),
				})
			case vIllegal:
				res.Stats.RejectedLegality++
			case vUnclosed:
				res.Stats.RejectedClosure++
			case vNonMinimal:
				res.Stats.RejectedMinimality++
			}
		}
		below = verdicts
	}
	rankSuggestions(res.Suggestions)
	return res
}
