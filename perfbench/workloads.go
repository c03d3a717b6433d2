package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"ozz/internal/core"
	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/repair"
	"ozz/internal/report"
)

// huntBatch is the Pool.Run size of a hunt: one executor batch, so a hunt
// walks exactly the step sequence of one long Run and notices a first
// report within one batch.
const huntBatch = 32

// cleanOp is the Pool.Run size of one clean op: 32 executor batches, long
// enough that one op's CPU time is not dominated by a single GC cycle or a
// cold first program.
const cleanOp = 32 * huntBatch

// Salts keep the derived seeds of the three workloads apart.
const (
	saltHunt = iota + 1
	saltClean
	saltRepair
)

// deriveSeed maps (workload seed, salt, index) to a campaign seed with the
// splitmix64 finalizer.
func deriveSeed(seed int64, salt, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(salt)<<32 + uint64(i) + 1
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// target is one Table 3/4 bug and the report title that proves it.
type target struct {
	bug   modules.BugInfo
	title string
}

// soft reports whether the bug shows as a soft report rather than a crash.
func (t target) soft() bool { return t.bug.Title == "" }

// tableBugs returns the 20 Table 3/4 bugs in ID order.
func tableBugs() []target {
	var out []target
	for _, b := range modules.AllBugs() {
		if b.Table != 3 && b.Table != 4 {
			continue
		}
		title := b.Title
		if title == "" {
			title = b.SoftTitle
		}
		out = append(out, target{bug: b, title: title})
	}
	return out
}

// pass is one run of a workload's fixed work and everything measured
// about it.
type pass struct {
	workload  string
	sizeNote  string
	attempted int
	failed    int      // ops whose output is wrong
	failedOps []string // what each failed op got wrong
	failures  []string // failed correctness checks of the run itself
	reg       *obs.Registry
	probe     *probe
	workers   int

	setup   []float64 // seconds per set-up repetition
	wall    float64   // measured loop, wall seconds
	cpu     float64   // measured loop, user+sys CPU seconds
	heapMax uint64    // largest reachable heap at a unit's end, bytes
	// heapWall and heapCPU are the seconds markHeap took.
	heapWall, heapCPU float64

	// Per-op samples: latency in wall and in process CPU seconds, and
	// MTIs. A hunt's op is one bug hunt (time to its first report), a
	// clean op one Pool.Run batch, a repair op one reproduce-and-fix.
	lat, latCPU []float64
	mtis        []float64
	ok, ops     int // ops that succeeded, out of ops
	// Per-unit rates (a unit is a hunt, a campaign, or a repair round):
	// steps and kernel executions per wall and per CPU second.
	tests, execs       []float64
	testsCPU, execsCPU []float64

	runS    float64 // seconds inside Pool.Run
	litmusS float64 // seconds inside repair.Litmus

	steps, mtisTotal, hints uint64
	counts                  strings.Builder // canonical deterministic counts

	delta map[string]float64 // registry values at the end of the pass
}

// fail records a failed correctness check of the run: determinism, the
// Fig. 1 fix, or another result the workload must always reproduce.
func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, p.workload+": "+fmt.Sprintf(format, args...))
}

// failOp records an op whose output is wrong: a found bug with the wrong
// reordering type, or an OOO report on the fixed kernel.
func (p *pass) failOp(format string, args ...any) {
	p.failed++
	p.failedOps = append(p.failedOps, fmt.Sprintf(format, args...))
}

// digest hashes the pass's deterministic counts.
func (p *pass) digest() string {
	sum := sha256.Sum256([]byte(p.counts.String()))
	return fmt.Sprintf("%x", sum[:8])
}

func (p *pass) countLine() string {
	return fmt.Sprintf("steps=%d mtis=%d hints=%d ok=%d/%d", p.steps, p.mtisTotal, p.hints, p.ok, p.ops)
}

// runPass runs the workload's fixed work once, traced when tr is non-nil.
func runPass(o options, tr *tracer) *pass {
	reg := obs.NewRegistry()
	p := &pass{workload: o.workload, reg: reg, probe: newProbe(reg), workers: 1}
	if tr != nil {
		tr.probe = p.probe
		root := tr.begin("pass", map[string]any{"workload": o.workload, "seed": o.seed})
		defer tr.end(root)
	}
	switch o.workload {
	case "hunt":
		p.hunt(o.seed, o.sizes, tr)
	case "clean":
		p.clean(o.seed, o.sizes, tr)
	case "repair":
		p.repair(o.seed, o.sizes, tr)
	}
	p.delta = p.probe.read()
	return p
}

// measureSetup times reps set-ups of the workload's campaign state.
func (p *pass) measureSetup(reps int, tr *tracer, build func()) {
	for i := 0; i < reps; i++ {
		s := tr.begin("setup", nil)
		t0 := time.Now()
		build()
		p.setup = append(p.setup, time.Since(t0).Seconds())
		tr.end(s)
	}
}

// runBatch runs n steps on the pool inside a "run" span and returns the
// new reports with the batch's wall and CPU seconds.
func (p *pass) runBatch(pool *core.Pool, n int, tr *tracer) ([]*report.Report, float64, float64) {
	s := tr.begin("run", nil)
	u := startMeter()
	rs := pool.Run(n)
	d, c := u.since()
	tr.end(s)
	p.runS += d
	return rs, d, c
}

// unit records one unit's steps and kernel executions over its wall and
// CPU seconds.
func (p *pass) unit(steps uint64, execs, wall, cpu float64) {
	p.tests = append(p.tests, float64(steps)/wall)
	p.execs = append(p.execs, execs/wall)
	p.testsCPU = append(p.testsCPU, float64(steps)/cpu)
	p.execsCPU = append(p.execsCPU, execs/cpu)
}

// acquires returns the kernel acquisitions (executions) so far.
func (p *pass) acquires() float64 {
	v := p.probe.read()
	return v["kernel.recycled"] + v["kernel.built"]
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// markHeap collects garbage and records the heap still reachable, at the
// end of a unit while its pool is live: the peak then tracks the data the
// workload keeps, not when the collector happened to run. The time it takes
// is kept out of the pass's wall and CPU totals.
func (p *pass) markHeap() {
	m := startMeter()
	runtime.GC()
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > p.heapMax {
		p.heapMax = v
	}
	w, c := m.since()
	p.heapWall += w
	p.heapCPU += c
}

// meter measures the wall and CPU time of the measured loop.
type meter struct {
	t0  time.Time
	cpu float64
}

// cpuSeconds returns the user+sys CPU time of the whole process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func startMeter() meter { return meter{t0: time.Now(), cpu: cpuSeconds()} }

// since returns the wall and CPU seconds since the meter started.
func (m meter) since() (wall, cpu float64) {
	return time.Since(m.t0).Seconds(), cpuSeconds() - m.cpu
}

// stop sets the pass's wall and CPU totals, less the time markHeap took.
func (m meter) stop(p *pass) {
	w, c := m.since()
	p.wall, p.cpu = w-p.heapWall, c-p.heapCPU
}

// hunt runs width-1 campaigns over every module with the 20 Table 3/4
// switches on, the migration strategy and no seed corpus, one per derived
// seed, each until every expected title has been reported or the step cap
// is hit. A title's first report decides its bug: report sets deduplicate
// by title, so a title first reported in order can never be reported OOO
// later and the hunt stops waiting for it.
func (p *pass) hunt(seed int64, sz sizes, tr *tracer) {
	bugs := tableBugs()
	byTitle := make(map[string]target, len(bugs))
	var switches []string
	for _, t := range bugs {
		byTitle[t.title] = t
		switches = append(switches, t.bug.Switch)
	}
	if len(byTitle) != len(bugs) {
		p.fail("Table 3/4 titles are not unique")
	}
	cfg := func(s int64) core.Config {
		return core.Config{Bugs: modules.Bugs(switches...), Seed: s, Strategy: "migration", Obs: p.reg}
	}
	p.sizeNote = fmt.Sprintf("hunt: %d hunts x %d bugs, cap %d steps, width 1", sz.Hunts, len(bugs), sz.HuntCap)
	p.measureSetup(sz.SetupReps, tr, func() { core.NewPool(cfg(seed), 1) })

	m := startMeter()
	for h := 0; h < sz.Hunts; h++ {
		hs := deriveSeed(seed, saltHunt, h)
		span := tr.begin("hunt", map[string]any{"seed": hs})
		pool := core.NewPool(cfg(hs), 1)
		a0 := p.acquires()
		u := startMeter()
		seen := make(map[string]string, len(bugs))
		for st := 0; st < sz.HuntCap && len(seen) < len(bugs); st += huntBatch {
			rs, _, _ := p.runBatch(pool, huntBatch, tr)
			at, atCPU := u.since()
			for _, r := range rs {
				t, ok := byTitle[r.Title]
				if !ok || seen[r.Title] != "" {
					continue
				}
				if !r.OOO && !t.soft() {
					seen[r.Title] = "in-order" // dedup drops every later OOO report
					continue
				}
				seen[r.Title] = fmt.Sprintf("found mtis=%d type=%s", r.Tests, r.Type)
				tr.event("first_report", map[string]any{"bug": t.bug.ID, "ttb_s": at, "ttb_cpu_s": atCPU, "mtis": r.Tests})
				if !typeMatches(t.bug.Type, r.Type) || r.Tests < 1 {
					p.failOp("%s reported as %s after %d MTIs, want %s", t.bug.ID, r.Type, r.Tests, t.bug.Type)
					continue
				}
				p.lat = append(p.lat, at)
				p.latCPU = append(p.latCPU, atCPU)
				p.mtis = append(p.mtis, float64(r.Tests))
				p.ok++
			}
		}
		wall, cpu := u.since()
		p.markHeap()
		st := pool.Stats()
		p.unit(st.Steps, p.acquires()-a0, wall, cpu)
		p.addStats(st)
		fmt.Fprintf(&p.counts, "hunt %d seed %d steps %d mtis %d hints %d\n", h, hs, st.Steps, st.MTIs, st.Hints)
		for _, t := range bugs {
			out := seen[t.title]
			if out == "" {
				out = "unseen"
			}
			fmt.Fprintf(&p.counts, "  %s %s\n", t.bug.ID, out)
		}
		tr.end(span)
	}
	m.stop(p)
	p.ops = sz.Hunts * len(bugs)
	p.attempted = p.ops
}

// typeMatches reports whether got is one of the "/"-separated types of want.
func typeMatches(want, got string) bool {
	for _, t := range strings.Split(want, "/") {
		if t == got {
			return true
		}
	}
	return false
}

func (p *pass) addStats(st core.Stats) {
	p.steps += st.Steps
	p.mtisTotal += st.MTIs
	p.hints += st.Hints
}

// clean runs fixed-length campaigns over every module with no bug switch
// (the fixed kernel), the ooo strategy, no seed corpus, and a pool of
// width min(2, CPUs). Any OOO report is a false positive.
func (p *pass) clean(seed int64, sz sizes, tr *tracer) {
	p.workers = min(2, runtime.NumCPU())
	cfg := func(s int64) core.Config { return core.Config{Seed: s, Strategy: "ooo", Obs: p.reg} }
	p.sizeNote = fmt.Sprintf("clean: %d campaigns x %d steps, width %d", sz.Campaigns, sz.CleanSteps, p.workers)
	p.measureSetup(sz.SetupReps, tr, func() { core.NewPool(cfg(seed), p.workers) })

	m := startMeter()
	for c := 0; c < sz.Campaigns; c++ {
		cs := deriveSeed(seed, saltClean, c)
		span := tr.begin("campaign", map[string]any{"seed": cs})
		pool := core.NewPool(cfg(cs), p.workers)
		a0 := p.acquires()
		u := startMeter()
		var prevMTIs uint64
		var titles []string
		for done := 0; done < sz.CleanSteps; done += cleanOp {
			rs, d, c := p.runBatch(pool, min(cleanOp, sz.CleanSteps-done), tr)
			mtis := pool.Stats().MTIs
			p.lat = append(p.lat, d)
			p.latCPU = append(p.latCPU, c)
			p.mtis = append(p.mtis, float64(mtis-prevMTIs))
			prevMTIs = mtis
			for _, r := range rs {
				titles = append(titles, fmt.Sprintf("%s ooo=%v", r.Title, r.OOO))
				if r.OOO {
					p.failOp("OOO report on the fixed kernel: %s", r.Title)
				}
			}
		}
		wall, cpu := u.since()
		p.markHeap()
		st := pool.Stats()
		p.unit(st.Steps, p.acquires()-a0, wall, cpu)
		p.addStats(st)
		fmt.Fprintf(&p.counts, "campaign %d seed %d steps %d mtis %d hints %d vacuous %d corpus %d edges %d\n",
			c, cs, st.Steps, st.MTIs, st.Hints, st.Vacuous, st.CorpusLen, pool.CoverageEdges())
		for _, t := range titles {
			fmt.Fprintf(&p.counts, "  %s\n", t)
		}
		tr.end(span)
	}
	m.stop(p)
	p.attempted = int(p.steps)
	p.ops = p.attempted
	p.ok = p.ops - p.failed
}

// repairOp is one "reproduce, then get a ranked fix" operation: an in-vivo
// Table 3/4 bug (bug != nil) or a litmus shape, under one memory model.
type repairOp struct {
	name  string
	model *memmodel.Table
	bug   *target
	test  *lkmm.Test
	seed  int64
}

// repairOps lists the ops of one round: every Table 3/4 bug, then every
// litmus shape, under lkmm and then armv8.
func repairOps(seed int64) []repairOp {
	var ops []repairOp
	for _, mm := range []*memmodel.Table{memmodel.LKMM, memmodel.ARMv8} {
		for _, t := range tableBugs() {
			t := t
			ops = append(ops, repairOp{name: mm.Name() + " " + t.bug.ID + " " + t.bug.Switch, model: mm, bug: &t})
		}
		for _, e := range lkmm.Suite() {
			ops = append(ops, repairOp{name: mm.Name() + " litmus " + e.Test.Name, model: mm, test: e.Test})
		}
	}
	for i := range ops {
		ops[i].seed = deriveSeed(seed, saltRepair, i)
	}
	return ops
}

func repairConfig(op repairOp, reg *obs.Registry) core.Config {
	b := op.bug.bug
	return core.Config{
		Modules: []string{b.Module}, Bugs: modules.Bugs(b.Switch), Seed: op.seed,
		UseSeeds: true, Strategy: b.Strategy, Repair: true, Model: op.model, Obs: reg,
	}
}

// repair runs Rounds passes over the op list. Every round repeats the same
// ops on the same seeds, so each op's latency is the median of its rounds
// and every round must report the same counts.
func (p *pass) repair(seed int64, sz sizes, tr *tracer) {
	nOps := len(repairOps(seed))
	p.sizeNote = fmt.Sprintf("repair: %d rounds x %d ops, cap %d steps, width 1", sz.Rounds, nOps, repairCap)
	p.measureSetup(sz.SetupReps, tr, func() {
		for _, op := range repairOps(seed) {
			if op.bug != nil {
				core.NewPool(repairConfig(op, p.reg), 1)
			}
		}
	})
	metrics := repair.RegisterMetrics(p.reg)

	m := startMeter()
	lat := make([][]float64, nOps)
	latCPU := make([][]float64, nOps)
	var first string
	for round := 0; round < sz.Rounds; round++ {
		var text strings.Builder
		var steps uint64
		var invivoS, invivoCPU float64
		a0 := p.acquires()
		for i, op := range repairOps(seed) {
			span := tr.begin("repair_op", map[string]any{"op": op.name, "round": round})
			u := startMeter()
			var pool *core.Pool
			var rep *report.Report
			var rr *repair.Result
			if op.bug != nil {
				pool, rep = p.reproduce(op, tr)
			} else {
				rr = p.litmus(op, metrics, tr)
			}
			d, c := u.since()
			tr.end(span)
			lat[i] = append(lat[i], d)
			latCPU[i] = append(latCPU[i], c)
			if round == 0 {
				p.markHeap()
			}
			var line string
			if op.bug != nil {
				invivoS += d
				invivoCPU += c
				st := pool.Stats()
				steps += st.Steps
				if round == 0 {
					p.addStats(st)
				}
				line = p.inspectInVivo(op, pool, rep, round == 0)
			} else {
				line = p.inspectLitmus(op, rr, round == 0)
			}
			fmt.Fprintf(&text, "%s: %s\n", op.name, line)
		}
		p.unit(steps, p.acquires()-a0, invivoS, invivoCPU)
		if round == 0 {
			first = text.String()
			p.counts.WriteString(first)
		} else if text.String() != first {
			p.fail("round %d counts differ from round 0", round)
		}
	}
	m.stop(p)
	for i := range lat {
		p.lat = append(p.lat, median(lat[i]))
		p.latCPU = append(p.latCPU, median(latCPU[i]))
	}
	p.ops = nOps
	p.attempted = nOps * sz.Rounds
}

// repairCap caps a reproduction's steps; the seed corpus reproduces every
// Table 3/4 bug within its first few steps.
const repairCap = 64

// reproduce runs a module-scoped, seeded pool with repair on until the
// bug's title is reported or the step cap is hit.
func (p *pass) reproduce(op repairOp, tr *tracer) (*core.Pool, *report.Report) {
	pool := core.NewPool(repairConfig(op, p.reg), 1)
	for st := 0; st < repairCap; st++ {
		rs, _, _ := p.runBatch(pool, 1, tr)
		for _, r := range rs {
			if r.Title == op.bug.title {
				return pool, r
			}
		}
	}
	return pool, nil
}

// inspectInVivo checks a reproduction's repair result and renders the op's
// count line; record marks the round whose outcomes are counted.
func (p *pass) inspectInVivo(op repairOp, pool *core.Pool, rep *report.Report, record bool) string {
	steps := pool.Stats().Steps
	if rep == nil || (!rep.OOO && !op.bug.soft()) {
		return fmt.Sprintf("steps %d not reproduced", steps)
	}
	rr := pool.RepairResult(op.bug.title)
	var lines []string
	if rr != nil {
		lines = rr.Lines()
	}
	if record {
		p.mtis = append(p.mtis, float64(rep.Tests))
		if len(lines) > 0 {
			p.ok++
		}
		p.checkRepair(op, rr)
	}
	return fmt.Sprintf("steps %d mtis %d fixes [%s]", steps, rep.Tests, strings.Join(lines, " | "))
}

func (p *pass) litmus(op repairOp, m *repair.Metrics, tr *tracer) *repair.Result {
	s := tr.begin("litmus", map[string]any{"test": op.test.Name})
	t0 := time.Now()
	rr := repair.Litmus(op.test, repair.Options{Model: op.model, Metrics: m})
	p.litmusS += time.Since(t0).Seconds()
	tr.end(s)
	return rr
}

func (p *pass) inspectLitmus(op repairOp, rr *repair.Result, record bool) string {
	if record {
		if len(rr.Suggestions) > 0 {
			p.ok++
		}
		p.checkRepair(op, rr)
	}
	return fmt.Sprintf("buggy %d fixes [%s]", len(rr.BuggyOutcomes), strings.Join(rr.Lines(), " | "))
}

// Fig. 1's upstream fix: the one suggestion watchqueue:pipe_wmb must rank
// first under every model.
const (
	fig1Switch = "watchqueue:pipe_wmb"
	fig1After  = "post_one_notification:buf->ops=&ops"
	fig1Before = "post_one_notification:head+=1"
)

// checkRepair verifies a repair result: every suggestion fixes the primary
// model, and Fig. 1's bug gets exactly its upstream smp_wmb.
func (p *pass) checkRepair(op repairOp, rr *repair.Result) {
	if rr == nil {
		if op.bug != nil && op.bug.bug.Switch == fig1Switch {
			p.fail("%s: no repair result", op.name)
		}
		return
	}
	for _, s := range rr.Suggestions {
		for _, mr := range s.Models {
			if mr.Model == op.model.Name() && mr.Status != repair.StatusFixes {
				p.fail("%s: suggestion %q is %s under its own model", op.name, s.String(), mr.Status)
			}
		}
	}
	if op.bug == nil || op.bug.bug.Switch != fig1Switch {
		return
	}
	if len(rr.Suggestions) == 0 || len(rr.Suggestions[0].Fences) != 1 {
		p.fail("%s: want one single-fence suggestion first, got %v", op.name, rr.Lines())
		return
	}
	f := rr.Suggestions[0].Fences[0]
	if f.Action != repair.ActionInsert || f.Barrier != "smp_wmb" || f.After != fig1After || f.Before != fig1Before {
		p.fail("%s: top suggestion is %q, want insert smp_wmb between %s and %s", op.name, f.String(), fig1After, fig1Before)
	}
}
