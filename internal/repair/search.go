package repair

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"ozz/internal/lkmm"
	"ozz/internal/lkmm/model"
	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// Options configures a repair search.
type Options struct {
	// Model is the primary memory model candidates must be legal and
	// closing under; nil selects the registered "lkmm" table.
	Model *memmodel.Table
	// MaxFences bounds the candidate size (default 2). The search stops
	// at the first size class that validates at least one candidate, so
	// suggestions are always minimal-size.
	MaxFences int
	// Workers is the number of goroutines validating candidates of one
	// size class (default 1). Results are independent of the worker
	// count: verdicts are collected by candidate index and folded into
	// stats in enumeration order.
	Workers int
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
// oracle (nil means OEMU litmus enumeration).
type problem struct {
	test    *lkmm.Test
	labels  [][]string
	primary *memmodel.Table
	opts    Options
	// restrict limits fence placement to one thread (the reorderer's
	// abstraction, in vivo); -1 allows every thread (litmus mode).
	restrict int
	// closure overrides the closure oracle; nil falls back to the
	// OEMU-driven litmus enumeration (litmusRun).
	closure func(fences []Fence, mm *memmodel.Table) bool
	// enumerate is the reference enumerator behind buggy sets and
	// legality (model.RunModel).
	enumerate func(t *lkmm.Test, mm *memmodel.Table) *model.Result
	// litmusRun is the OEMU litmus enumerator behind the litmus closure
	// (lkmm.RunModel).
	litmusRun func(t *lkmm.Test, mm *memmodel.Table) *lkmm.Result

	mu    sync.Mutex
	buggy map[string][]lkmm.Outcome
	sc    map[lkmm.Outcome]bool
	// legality memoizes legal verdicts for the whole search, so size-k
	// minimality checks reuse the size-(k-1) verdicts and per-model
	// reports reuse the primary model's. nil disables the memo.
	legality map[legalKey]*legalVerdict
	// litmusClosed memoizes litmus closure verdicts the same way, so
	// per-model reports reuse the closure validate just passed. The
	// in-vivo closure is never memoized. nil disables the memo.
	litmusClosed map[legalKey]*legalVerdict
}

// legalKey identifies one memoized verdict: a candidate's fence set (see
// fenceSetKey) under one model.
type legalKey struct {
	model  string
	fences string
}

// legalVerdict is one memoized verdict. once makes concurrent validation
// workers that need the same verdict share one enumeration.
type legalVerdict struct {
	once sync.Once
	ok   bool
}

func newProblem(test *lkmm.Test, labels [][]string, opts Options, restrict int) *problem {
	return &problem{
		test:         test,
		labels:       labels,
		primary:      opts.model(),
		opts:         opts,
		restrict:     restrict,
		enumerate:    model.RunModel,
		litmusRun:    lkmm.RunModel,
		buggy:        map[string][]lkmm.Outcome{},
		legality:     map[legalKey]*legalVerdict{},
		litmusClosed: map[legalKey]*legalVerdict{},
	}
}

// buggySet returns the weak-only outcomes of the unrepaired test under mm:
// reference-enumerator outcomes minus the SC baseline's. These are the
// behaviours a repair must forbid.
func (p *problem) buggySet(mm *memmodel.Table) []lkmm.Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.buggy[mm.Name()]; ok {
		return b
	}
	if p.sc == nil {
		p.sc = p.enumerate(p.test, scBaseline).Outcomes
	}
	weak := p.enumerate(p.test, mm)
	var b []lkmm.Outcome
	for _, s := range weak.Sorted() {
		if o := lkmm.Outcome(s); !p.sc[o] {
			b = append(b, o)
		}
	}
	p.buggy[mm.Name()] = b
	return b
}

// singleFences enumerates every single-fence candidate in a fixed order:
// barrier insertions at every gap of every (allowed) thread, then
// annotation strengthenings, sorted by (weight, thread, position, kind) so
// the combination generator — and therefore the whole search — is
// deterministic across runs and worker counts.
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

// combinations generates every size-k subset of singles in lexicographic
// index order.
func combinations(singles []Fence, k int) [][]Fence {
	var out [][]Fence
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			c := make([]Fence, k)
			for i, j := range idx {
				c[i] = singles[j]
			}
			out = append(out, c)
			return
		}
		for j := start; j <= len(singles)-(k-depth); j++ {
			idx[depth] = j
			rec(j+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}

// applyFences builds the repaired litmus test: barriers spliced into their
// gaps, strengthened ops re-annotated.
func applyFences(t *lkmm.Test, fences []Fence) *lkmm.Test {
	nt := &lkmm.Test{
		Name:    t.Name + "+fix",
		NumLocs: t.NumLocs,
		NumRegs: t.NumRegs,
	}
	for ti, ops := range t.Threads {
		inserts := map[int][]trace.BarrierKind{}
		strengthen := map[int]trace.Atomicity{}
		for _, f := range fences {
			if f.thread != ti {
				continue
			}
			if f.Action == ActionInsert {
				inserts[f.pos] = append(inserts[f.pos], f.bar)
			} else {
				strengthen[f.pos] = f.atom
			}
		}
		for _, ks := range inserts {
			sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
		}
		nops := make([]lkmm.Op, 0, len(ops)+len(fences))
		for i := 0; i <= len(ops); i++ {
			for _, bk := range inserts[i] {
				nops = append(nops, lkmm.Op{Kind: lkmm.OpBarrier, Bar: bk})
			}
			if i < len(ops) {
				op := ops[i]
				if a, ok := strengthen[i]; ok {
					op.Atomic = a
				}
				nops = append(nops, op)
			}
		}
		nt.Threads = append(nt.Threads, nops)
	}
	return nt
}

// fenceSetKey encodes a candidate as a binary string of its fences'
// (thread, position, action, barrier, atomicity) coordinates. Candidates
// and their minimality sub-candidates list fences in singleFences order,
// so one set always encodes the same way.
func fenceSetKey(fences []Fence) string {
	b := make([]byte, 0, 8*len(fences))
	for _, f := range fences {
		action := uint64(0)
		if f.Action == ActionStrengthen {
			action = 1
		}
		b = binary.AppendUvarint(b, uint64(f.thread))
		b = binary.AppendUvarint(b, uint64(f.pos))
		b = binary.AppendUvarint(b, action)
		b = binary.AppendUvarint(b, uint64(f.bar))
		b = binary.AppendUvarint(b, uint64(f.atom))
	}
	return string(b)
}

// legal reports whether the repaired test forbids every buggy outcome
// under mm, per the reference enumerator. Verdicts are memoized per
// (fence set, model).
func (p *problem) legal(fences []Fence, mm *memmodel.Table) bool {
	return p.memo(p.legality, fences, mm, p.checkLegal)
}

// memo returns check's verdict on (fences, mm), computing it at most once
// per key of verdicts. A nil verdicts map disables the memo.
func (p *problem) memo(verdicts map[legalKey]*legalVerdict, fences []Fence, mm *memmodel.Table, check func([]Fence, *memmodel.Table) bool) bool {
	if verdicts == nil {
		return check(fences, mm)
	}
	k := legalKey{model: mm.Name(), fences: fenceSetKey(fences)}
	p.mu.Lock()
	v := verdicts[k]
	if v == nil {
		v = &legalVerdict{}
		verdicts[k] = v
	}
	p.mu.Unlock()
	v.once.Do(func() { v.ok = check(fences, mm) })
	return v.ok
}

// checkLegal runs the reference enumerator over the repaired test.
func (p *problem) checkLegal(fences []Fence, mm *memmodel.Table) bool {
	res := p.enumerate(applyFences(p.test, fences), mm)
	for _, o := range p.buggySet(mm) {
		if res.Has(o) {
			return false
		}
	}
	return true
}

// closes reports whether the candidate closes the bug under mm in the
// live layer: the injected in-vivo oracle when present, otherwise the
// OEMU-driven litmus enumeration of the repaired test. Only the litmus
// closure, a pure function of (fence set, model), is memoized: the
// in-vivo oracle runs the engine, and its runs are counted, so it
// executes exactly the runs an unmemoized search would.
func (p *problem) closes(fences []Fence, mm *memmodel.Table) bool {
	if p.closure != nil {
		return p.closure(fences, mm)
	}
	return p.memo(p.litmusClosed, fences, mm, p.litmusCloses)
}

// litmusCloses runs the OEMU litmus enumeration over the repaired test.
func (p *problem) litmusCloses(fences []Fence, mm *memmodel.Table) bool {
	repaired := applyFences(p.test, fences)
	if len(lkmm.DirectiveSites(repaired)) > lkmm.MaxDirectiveSites {
		// Too wide for the OEMU enumeration: rely on legality alone.
		return true
	}
	res := p.litmusRun(repaired, mm)
	for _, o := range p.buggySet(mm) {
		if res.Has(o) {
			return false
		}
	}
	return true
}

// Candidate verdict codes.
const (
	vOK = iota
	vIllegal
	vUnclosed
	vNonMinimal
)

type verdict struct {
	status int
	models []ModelReport
}

// validate runs the full check chain on one candidate: minimality (every
// strict sub-candidate must be illegal under the primary model), legality,
// closure, and finally the per-registered-model probe.
func (p *problem) validate(fences []Fence) verdict {
	if len(fences) > 1 {
		sub := make([]Fence, 0, len(fences)-1)
		for drop := range fences {
			sub = sub[:0]
			for i, f := range fences {
				if i != drop {
					sub = append(sub, f)
				}
			}
			if p.legal(sub, p.primary) {
				return verdict{status: vNonMinimal}
			}
		}
	}
	if !p.legal(fences, p.primary) {
		return verdict{status: vIllegal}
	}
	if !p.closes(fences, p.primary) {
		return verdict{status: vUnclosed}
	}
	return verdict{status: vOK, models: p.modelReports(fences)}
}

// modelReports probes the validated candidate under every registered
// memory model.
func (p *problem) modelReports(fences []Fence) []ModelReport {
	var out []ModelReport
	for _, mm := range memmodel.All() {
		status := StatusInsufficient
		switch {
		case len(p.buggySet(mm)) == 0:
			status = StatusUnnecessary
		case p.legal(fences, mm) && p.closes(fences, mm):
			status = StatusFixes
		}
		out = append(out, ModelReport{Model: mm.Name(), Status: status})
	}
	return out
}

// validateAll validates one size class, optionally in parallel. Verdicts
// come back indexed by candidate, so downstream accounting is independent
// of scheduling.
func (p *problem) validateAll(cands [][]Fence) []verdict {
	out := make([]verdict, len(cands))
	workers := p.opts.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i, c := range cands {
			out[i] = p.validate(c)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				out[i] = p.validate(cands[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// run executes the ascending-size search and assembles the ranked Result.
func (p *problem) run(target, kind string) *Result {
	m := p.opts.Metrics
	m.search()
	res := &Result{Target: target, Kind: kind, Model: p.primary.Name()}
	for _, o := range p.buggySet(p.primary) {
		res.BuggyOutcomes = append(res.BuggyOutcomes, string(o))
	}
	if len(res.BuggyOutcomes) == 0 {
		return res
	}
	singles := p.singleFences()
	for size := 1; size <= p.opts.maxFences() && len(res.Suggestions) == 0; size++ {
		cands := combinations(singles, size)
		if len(cands) == 0 {
			break
		}
		res.Stats.Enumerated += len(cands)
		m.enumerated(len(cands))
		for i, v := range p.validateAll(cands) {
			switch v.status {
			case vOK:
				res.Stats.Validated++
				m.validated()
				res.Suggestions = append(res.Suggestions, &Suggestion{Fences: cands[i], Models: v.models})
			case vIllegal:
				res.Stats.RejectedLegality++
				m.rejected("legality")
			case vUnclosed:
				res.Stats.RejectedClosure++
				m.rejected("closure")
			case vNonMinimal:
				res.Stats.RejectedMinimality++
				m.rejected("minimality")
			}
		}
	}
	rankSuggestions(res.Suggestions)
	if len(res.Suggestions) > 0 {
		m.suggested()
	}
	return res
}
