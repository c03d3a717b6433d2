package lkmm

import (
	"ozz/internal/kmem"
	"ozz/internal/memmodel"
	"ozz/internal/oemu"
	"ozz/internal/trace"
)

// directiveSite is one op an OEMU directive can target: a store it may
// delay or a load it may version.
type directiveSite struct {
	instr trace.InstrID
	store bool
}

// directiveSites lists the test's directive sites in thread and program
// order; bit i of a directive mask selects site i.
func directiveSites(test *Test) []directiveSite {
	var sites []directiveSite
	for ti, th := range test.Threads {
		for oi, op := range th {
			switch op.Kind {
			case OpStore:
				sites = append(sites, directiveSite{instrID(ti, oi), true})
			case OpLoad:
				sites = append(sites, directiveSite{instrID(ti, oi), false})
			}
		}
	}
	return sites
}

// RunModelFresh is the mask-major enumeration RunModel's search replaced:
// for every directive mask, chosen before the run starts and installed on
// every thread, every interleaving executes on a freshly built memory,
// emulator and thread set, as executeFresh does. It is the oracle the
// search and its reused executor are checked against.
func RunModelFresh(test *Test, mm *memmodel.Table) *Result {
	sites := directiveSites(test)
	if len(sites) > MaxDirectiveSites {
		panic("litmus test too large for exhaustive directive enumeration")
	}
	res := &Result{Outcomes: make(map[Outcome]bool)}
	for mask := 0; mask < 1<<len(sites); mask++ {
		enumerateInterleavings(test, func(order []int) {
			regs := executeFresh(test, order, mm, func(th *oemu.Thread) {
				for bi, s := range sites {
					if mask&(1<<bi) == 0 {
						continue
					}
					if s.store {
						th.Dir.DelayStoreAt(s.instr)
					} else {
						th.Dir.ReadOldValueAt(s.instr)
					}
				}
			})
			res.Outcomes[Outcome(appendOutcome(nil, regs))] = true
			res.Runs++
		})
	}
	return res
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

// executeFresh runs one interleaving on a new memory, emulator and thread
// set under the given memory model, with install applied to every thread,
// and returns the final registers.
func executeFresh(test *Test, order []int, mm *memmodel.Table, install func(*oemu.Thread)) []uint64 {
	mem := kmem.New()
	mem.Sanitize = false
	em := oemu.NewModel(mem, mm)
	threads := make([]*oemu.Thread, len(test.Threads))
	for i := range threads {
		threads[i] = em.NewThread()
		install(threads[i])
	}
	regs := make([]uint64, test.NumRegs)
	idx := make([]int, len(test.Threads))
	for _, ti := range order {
		op := test.Threads[ti][idx[ti]]
		site := instrID(ti, idx[ti])
		idx[ti]++
		th := threads[ti]
		switch op.Kind {
		case OpStore:
			th.Store(site, locAddr(op.Loc), op.Val, op.Atomic)
		case OpLoad:
			regs[op.Reg] = th.Load(site, locAddr(op.Loc), op.Atomic)
		case OpBarrier:
			th.Barrier(op.Bar)
		}
	}
	for _, th := range threads {
		th.Flush()
	}
	return regs
}
