// Package lkmm validates OEMU's compliance with the Linux Kernel Memory
// Model (§3.3, appendix §10.1) through litmus tests. A litmus test is a
// small multi-threaded program over a handful of shared locations; the
// engine exhaustively enumerates every thread interleaving AND every OEMU
// directive assignment (which stores to delay, which loads to version), and
// collects the set of observable outcomes (final register values).
//
// Compliance then means: outcomes the LKMM forbids are unreachable no
// matter the directives, and — the emulation-capability direction — weak
// outcomes the LKMM allows ARE reachable under some directive assignment
// (this is what a simple in-order executor cannot produce).
package lkmm

import (
	"fmt"
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
// test RunModel enumerates: every subset of the sites is one directive
// assignment, so the enumeration is exponential in them. RunModel panics
// on a wider test.
const MaxDirectiveSites = 12

// DirectiveSite is one op an OEMU directive can target: a store it may
// delay or a load it may version.
type DirectiveSite struct {
	Instr trace.InstrID
	Store bool
}

// DirectiveSites lists the test's directive sites in thread and program
// order; bit i of a directive mask selects site i.
func DirectiveSites(test *Test) []DirectiveSite {
	var sites []DirectiveSite
	for ti, th := range test.Threads {
		for oi, op := range th {
			switch op.Kind {
			case OpStore:
				sites = append(sites, DirectiveSite{instrID(ti, oi), true})
			case OpLoad:
				sites = append(sites, DirectiveSite{instrID(ti, oi), false})
			}
		}
	}
	return sites
}

// enumerableSites returns the test's directive sites, panicking when they
// exceed MaxDirectiveSites.
func enumerableSites(test *Test) []DirectiveSite {
	sites := DirectiveSites(test)
	if len(sites) > MaxDirectiveSites {
		panic("litmus test too large for exhaustive directive enumeration")
	}
	return sites
}

// RunModel enumerates all interleavings x directive assignments under
// the given memory model and returns the observable outcomes: the
// emulator executes each with the model's semantics table active. The
// search is exhaustive (exponential in program size — litmus tests are
// tiny by design).
func RunModel(test *Test, mm *memmodel.Table) *Result {
	// Enumerate directive assignments: a bit per delayable store and per
	// versionable load.
	sites := enumerableSites(test)
	out, runs := NewOutcomeSet(), 0
	x := newExecutor(test, mm)
	for mask := 0; mask < 1<<len(sites); mask++ {
		install := func(th *oemu.Thread) {
			for bi, s := range sites {
				if mask&(1<<bi) == 0 {
					continue
				}
				if s.Store {
					th.Dir.DelayStoreAt(s.Instr)
				} else {
					th.Dir.ReadOldValueAt(s.Instr)
				}
			}
		}
		enumerateInterleavings(test, func(order []int) {
			out.Add(x.execute(order, install))
			runs++
		})
	}
	return &Result{Outcomes: out.Outcomes, Runs: runs}
}

// enumerateInterleavings generates every merge of the threads' op
// sequences; order entries are thread indexes.
func enumerateInterleavings(test *Test, visit func(order []int)) {
	total := 0
	for _, th := range test.Threads {
		total += len(th)
	}
	counts := make([]int, len(test.Threads))
	order := make([]int, 0, total)
	var rec func()
	rec = func() {
		if len(order) == total {
			visit(order)
			return
		}
		for ti := range test.Threads {
			if counts[ti] < len(test.Threads[ti]) {
				counts[ti]++
				order = append(order, ti)
				rec()
				order = order[:len(order)-1]
				counts[ti]--
			}
		}
	}
	rec()
}

// executor runs the interleavings of one enumeration on one memory, one
// emulator and one thread slice, resetting them between runs instead of
// building them anew.
type executor struct {
	test    *Test
	mm      *memmodel.Table
	mem     *kmem.Memory
	em      *oemu.OEMU
	threads []*oemu.Thread
	idx     []int
	regs    []uint64
}

func newExecutor(test *Test, mm *memmodel.Table) *executor {
	mem := kmem.New()
	return &executor{
		test:    test,
		mm:      mm,
		mem:     mem,
		em:      oemu.NewModel(mem, mm),
		threads: make([]*oemu.Thread, len(test.Threads)),
		idx:     make([]int, len(test.Threads)),
		regs:    make([]uint64, test.NumRegs),
	}
}

// execute runs one interleaving under the executor's memory model with
// install applied to every thread (its Table 2 directives) and returns
// the final registers, valid until the next run. Store buffers drain at
// thread exit (like a syscall return); registers are read after all
// threads finish.
func (x *executor) execute(order []int, install func(*oemu.Thread)) []uint64 {
	// Reset turns sanitizing back on and the emulator back to LKMM.
	x.mem.Reset()
	x.mem.Sanitize = false
	x.em.Reset()
	x.em.SetModel(x.mm)
	for i := range x.threads {
		x.threads[i] = x.em.NewThread()
		install(x.threads[i])
	}
	clear(x.idx)
	clear(x.regs)
	for _, ti := range order {
		op := x.test.Threads[ti][x.idx[ti]]
		site := instrID(ti, x.idx[ti])
		x.idx[ti]++
		th := x.threads[ti]
		switch op.Kind {
		case OpStore:
			th.Store(site, locAddr(op.Loc), op.Val, op.Atomic)
		case OpLoad:
			x.regs[op.Reg] = th.Load(site, locAddr(op.Loc), op.Atomic)
		case OpBarrier:
			th.Barrier(op.Bar)
		}
	}
	for _, th := range x.threads {
		th.Flush()
	}
	return x.regs
}

// locAddr is the address of shared location l.
func locAddr(l int) trace.Addr { return trace.Addr(0x1000_0000 + l*8) }
