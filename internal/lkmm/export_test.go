package lkmm

import (
	"ozz/internal/kmem"
	"ozz/internal/memmodel"
	"ozz/internal/oemu"
)

// RunModelFresh is RunModel with every interleaving executed on a freshly
// built memory, emulator and thread set, as executeFresh does. It is the
// oracle the reused executor is checked against.
func RunModelFresh(test *Test, mm *memmodel.Table) *Result {
	sites := enumerableSites(test)
	res := &Result{Outcomes: make(map[Outcome]bool)}
	for mask := 0; mask < 1<<len(sites); mask++ {
		enumerateInterleavings(test, func(order []int) {
			regs := executeFresh(test, order, mm, func(th *oemu.Thread) {
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
			})
			res.Outcomes[MakeOutcome(regs)] = true
			res.Runs++
		})
	}
	return res
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
		threads[i] = em.NewThread(i)
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
