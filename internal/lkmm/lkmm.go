// Package lkmm validates OEMU's compliance with the Linux Kernel Memory
// Model (§3.3, appendix §10.1) through litmus tests. A litmus test is a
// small multi-threaded program over a handful of shared locations; the
// engine exhaustively enumerates every thread interleaving AND every OEMU
// directive assignment (which stores to delay, which loads to version), and
// collects the set of observable outcomes (final register values).
// RunModel is that enumeration; the differential harness
// (internal/lkmm/diff) pins its outcome sets to the reference model's
// (internal/lkmm/model), which is what fence repair's legality check
// searches.
//
// Compliance then means: outcomes the LKMM forbids are unreachable no
// matter the directives, and — the emulation-capability direction — weak
// outcomes the LKMM allows ARE reachable under some directive assignment
// (this is what a simple in-order executor cannot produce).
package lkmm

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ozz/internal/kmem"
	"ozz/internal/memmodel"
	"ozz/internal/oemu"
	"ozz/internal/trace"
)

// OpKind is one litmus operation kind.
type OpKind uint8

const (
	// OpStore stores Val to Loc.
	OpStore OpKind = iota
	// OpLoad loads Loc into register Reg.
	OpLoad
	// OpBarrier executes barrier Bar.
	OpBarrier
)

// Op is one operation of a litmus thread.
type Op struct {
	Kind   OpKind
	Loc    int // shared-location index
	Val    uint64
	Reg    int // destination register index (loads)
	Atomic trace.Atomicity
	Bar    trace.BarrierKind
}

// Convenience constructors.

// W is a plain store of v to location loc.
func W(loc int, v uint64) Op { return Op{Kind: OpStore, Loc: loc, Val: v} }

// WOnce is WRITE_ONCE.
func WOnce(loc int, v uint64) Op {
	return Op{Kind: OpStore, Loc: loc, Val: v, Atomic: trace.Once}
}

// WRel is smp_store_release.
func WRel(loc int, v uint64) Op {
	return Op{Kind: OpStore, Loc: loc, Val: v, Atomic: trace.AtomicRelease}
}

// R is a plain load of loc into register reg.
func R(loc, reg int) Op { return Op{Kind: OpLoad, Loc: loc, Reg: reg} }

// ROnce is READ_ONCE.
func ROnce(loc, reg int) Op {
	return Op{Kind: OpLoad, Loc: loc, Reg: reg, Atomic: trace.Once}
}

// RAcq is smp_load_acquire.
func RAcq(loc, reg int) Op {
	return Op{Kind: OpLoad, Loc: loc, Reg: reg, Atomic: trace.AtomicAcquire}
}

// Mb, Rmb, Wmb are the explicit barriers.
func Mb() Op  { return Op{Kind: OpBarrier, Bar: trace.BarrierFull} }
func Rmb() Op { return Op{Kind: OpBarrier, Bar: trace.BarrierLoad} }
func Wmb() Op { return Op{Kind: OpBarrier, Bar: trace.BarrierStore} }

// Test is a litmus test.
type Test struct {
	Name    string
	Threads [][]Op
	// NumLocs/NumRegs size the shared state and register file.
	NumLocs, NumRegs int
}

// NumOps counts the test's operations over all threads.
func (t *Test) NumOps() int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// Outcome is a final register assignment, rendered canonically as
// "r0=x;r1=y;...".
type Outcome string

// appendOutcome appends the canonical rendering of regs to b.
func appendOutcome(b []byte, regs []uint64) []byte {
	for i, v := range regs {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(b, 'r')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '=')
		b = strconv.AppendUint(b, v, 10)
	}
	return b
}

// Regs parses the outcome back into the register vector it renders. It
// panics on text that is not such a rendering.
func (o Outcome) Regs() []uint64 {
	if o == "" {
		return nil
	}
	fields := strings.Split(string(o), ";")
	regs := make([]uint64, len(fields))
	for i, f := range fields {
		val, ok := strings.CutPrefix(f, "r"+strconv.Itoa(i)+"=")
		v, err := strconv.ParseUint(val, 10, 64)
		if !ok || err != nil {
			panic(fmt.Sprintf("lkmm: malformed outcome %q", string(o)))
		}
		regs[i] = v
	}
	return regs
}

// OutcomeSet collects the outcomes of one enumeration. It renders each
// final register vector into a reused buffer and allocates the Outcome
// only when the rendering is new, so an enumeration that reaches few
// outcomes by many paths allocates few.
type OutcomeSet struct {
	// Outcomes maps every outcome added so far to true.
	Outcomes map[Outcome]bool
	buf      []byte
}

// NewOutcomeSet returns an empty set.
func NewOutcomeSet() *OutcomeSet {
	return &OutcomeSet{Outcomes: make(map[Outcome]bool)}
}

// Add records the outcome whose final registers are regs.
func (s *OutcomeSet) Add(regs []uint64) {
	s.buf = appendOutcome(s.buf[:0], regs)
	if !s.Outcomes[Outcome(s.buf)] {
		s.Outcomes[Outcome(s.buf)] = true
	}
}

// Result is the set of observable outcomes of a test.
type Result struct {
	Outcomes map[Outcome]bool
	// Runs counts executed (interleaving, directive) combinations.
	Runs int
}

// Has reports whether the outcome was observed.
func (r *Result) Has(o Outcome) bool { return r.Outcomes[o] }

// Sorted lists outcomes canonically.
func (r *Result) Sorted() []string {
	var out []string
	for o := range r.Outcomes {
		out = append(out, string(o))
	}
	sort.Strings(out)
	return out
}

// instrID assigns a unique site to thread t's op i.
func instrID(t, i int) trace.InstrID { return trace.InstrID(t*100 + i + 1) }

// MaxDirectiveSites bounds the directive sites — stores and loads — of a
// test RunModel searches: each site's directive is chosen on or off, so
// the search is exponential in them. RunModel panics on a wider test.
const MaxDirectiveSites = 12

// NumDirectiveSites counts the ops an OEMU directive can target: the
// stores it may delay and the loads it may version.
func NumDirectiveSites(test *Test) int {
	n := 0
	for _, th := range test.Threads {
		for _, op := range th {
			if op.Kind != OpBarrier {
				n++
			}
		}
	}
	return n
}

// RunModel enumerates all interleavings x directive assignments under
// the given memory model and returns the observable outcomes: the
// emulator executes each with the model's semantics table active. The
// search is exhaustive (exponential in program size — litmus tests are
// tiny by design).
func RunModel(test *Test, mm *memmodel.Table) *Result {
	if NumDirectiveSites(test) > MaxDirectiveSites {
		panic("litmus test too large for exhaustive directive enumeration")
	}
	var e enumerator
	out := NewOutcomeSet()
	e.run(test, mm, out)
	return &Result{Outcomes: out.Outcomes, Runs: e.runs}
}

// enumerator is RunModel's search over the OEMU litmus executor. It
// searches depth first over one choice per executed op: which thread
// runs next and, when that op is a store or a load, whether its site is
// directed to delay or to version. OEMU reads a site's directive only
// when the site executes, and every run starts from a reset emulator
// with history tracking on, so a run up to position p depends only on
// its first p choices: the search replays each run from the start on
// one reused executor.
type enumerator struct {
	x executor
	// path holds the current run's choices, one per executed op; the
	// runs that share path[:p] are searched together.
	path []choice
	// pc[t] counts thread t's ops among the choices executed so far.
	pc []int
	// runs counts the runs executed.
	runs int
}

// choice is one step of a run: the thread whose next op executes, and
// whether that op's site is directed (a store delayed, a load versioned).
type choice struct {
	thread    int
	directive bool
}

// run searches every run of test under mm and adds each one's outcome
// to out.
func (e *enumerator) run(test *Test, mm *memmodel.Table, out *OutcomeSet) {
	e.x.load(test, mm)
	e.pc = make([]int, len(test.Threads))
	total := test.NumOps()
	for {
		// Replay path, then extend it with each position's first choice
		// until the run completes.
		e.x.reset()
		clear(e.pc)
		for pos := 0; pos < total; pos++ {
			if pos == len(e.path) {
				e.path = append(e.path, choice{thread: e.firstThread()})
			}
			c := e.path[pos]
			oi := e.pc[c.thread]
			e.pc[c.thread]++
			e.x.exec(c.thread, oi, c.directive)
		}
		e.runs++
		out.Add(e.x.finish())
		// Undo choices from the last back to the deepest one with an
		// untried alternative; the runs below it are next.
		pos := total - 1
		for ; pos >= 0; pos-- {
			c := &e.path[pos]
			e.pc[c.thread]--
			if e.advance(c) {
				break
			}
		}
		if pos < 0 {
			return
		}
		e.path = e.path[:pos+1]
	}
}

// firstThread is the first choice at a new position: the lowest thread
// with ops left, undirected.
func (e *enumerator) firstThread() int {
	for t, ops := range e.x.test.Threads {
		if e.pc[t] < len(ops) {
			return t
		}
	}
	panic("lkmm: no thread has ops left")
}

// advance moves c, whose position's prefix pc describes, to its next
// alternative: the same thread with its site directed (every store and
// load, so Runs counts every directive assignment), then each later
// thread with ops left. It reports false when c was the last.
func (e *enumerator) advance(c *choice) bool {
	threads := e.x.test.Threads
	if !c.directive && threads[c.thread][e.pc[c.thread]].Kind != OpBarrier {
		c.directive = true
		return true
	}
	for t := c.thread + 1; t < len(threads); t++ {
		if e.pc[t] < len(threads[t]) {
			*c = choice{thread: t}
			return true
		}
	}
	return false
}

// executor runs litmus ops on one memory, one emulator and one thread
// slice, resetting them between runs instead of building them anew.
type executor struct {
	test    *Test
	mm      *memmodel.Table
	mem     *kmem.Memory
	em      *oemu.OEMU
	threads []*oemu.Thread
	regs    []uint64
}

// load points the executor at test under mm, building its memory and
// emulator on first use.
func (x *executor) load(test *Test, mm *memmodel.Table) {
	if x.mem == nil {
		x.mem = kmem.New()
		x.em = oemu.NewModel(x.mem, mm)
	}
	x.test, x.mm = test, mm
	x.threads = slices.Grow(x.threads[:0], len(test.Threads))[:len(test.Threads)]
	x.regs = slices.Grow(x.regs[:0], test.NumRegs)[:test.NumRegs]
}

// reset starts a run: fresh memory, emulator and threads under the
// executor's memory model, every register zero, no directive installed.
func (x *executor) reset() {
	// Reset turns sanitizing back on, history tracking on and the
	// emulator back to LKMM.
	x.mem.Reset()
	x.mem.Sanitize = false
	x.em.Reset()
	x.em.SetModel(x.mm)
	for i := range x.threads {
		x.threads[i] = x.em.NewThread()
	}
	clear(x.regs)
}

// exec executes op oi of thread ti. With directive set, the op's site is
// first directed (Table 2): a store is delayed, a load versioned.
func (x *executor) exec(ti, oi int, directive bool) {
	op := x.test.Threads[ti][oi]
	site := instrID(ti, oi)
	th := x.threads[ti]
	switch op.Kind {
	case OpStore:
		if directive {
			th.Dir.DelayStoreAt(site)
		}
		th.Store(site, locAddr(op.Loc), op.Val, op.Atomic)
	case OpLoad:
		if directive {
			th.Dir.ReadOldValueAt(site)
		}
		x.regs[op.Reg] = th.Load(site, locAddr(op.Loc), op.Atomic)
	case OpBarrier:
		th.Barrier(op.Bar)
	}
}

// finish ends the run and returns its final registers, valid until the
// next run. Store buffers drain at thread exit (like a syscall return);
// registers are read after all threads finish.
func (x *executor) finish() []uint64 {
	for _, th := range x.threads {
		th.Flush()
	}
	return x.regs
}

// locAddr is the address of shared location l.
func locAddr(l int) trace.Addr { return trace.Addr(0x1000_0000 + l*8) }
