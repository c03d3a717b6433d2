package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// percpu models the lib/percpu_counter-style pattern of per-CPU write
// positions with a summation reader — the scenario class behind Table 4 #6:
// fast-path writers keep a position in a per-CPU slot so they never contend,
// a slow-path maintenance operation resets every CPU's slot and swaps the
// shared buffer underneath, and a statistics reader folds all CPUs' slots
// into one sum.
//
// The bug ("percpu:trim_order") removes the full barrier between the
// per-CPU position resets and the publication of the shrunk buffer. Like
// sbitmap, the race is migration-sensitive: a pinned fast-path writer
// resolves its own CPU's position slot and never observes the stale value
// the prefix left on another CPU. Only a writer that resolved its per-CPU
// address after migrating onto the prefix CPU — the OOO executor's
// cross-CPU move — pairs the stale position with the new, smaller buffer:
// a slab-out-of-bounds WRITE (the dual of sbitmap's OOB read).
//
// Object layout:
//
//	ctr:       [0]=buf [1]=cap
//	buf:       kzalloc(cap) words
//	pos:       per-CPU, 1 word (next write index into buf)
var (
	pcSitePosLd    = site(0x46<<16+1, "pc_mark:this_cpu(pos)")
	pcSiteBuf      = site(0x46<<16+2, "pc_mark:ctr->buf")
	pcSiteSlot     = site(0x46<<16+3, "pc_mark:buf[pos]=v")
	pcSitePosSt    = site(0x46<<16+4, "pc_mark:this_cpu(pos)=next")
	pcSitePosReset = site(0x46<<16+5, "pc_trim:this_cpu(pos)=0")
	pcSiteTrimMb   = site(0x46<<16+6, "pc_trim:smp_mb")
	pcSiteBufPub   = site(0x46<<16+7, "pc_trim:ctr->buf=new")
	pcSiteCap      = site(0x46<<16+8, "pc_trim:ctr->cap=n")
	pcSiteSumLd    = site(0x46<<16+9, "pc_sum:load cpu pos")
)

type pcInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
	// pos holds the per-CPU write-position handle per counter (parallel
	// to res).
	pos []trace.Addr
}

func init() {
	register(&ModuleInfo{
		Name: "percpu",
		Defs: []*syzlang.SyscallDef{
			{Name: "pc_open", Module: "percpu", Ret: "pcctr"},
			{Name: "pc_mark", Module: "percpu",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "pcctr"}, syzlang.IntRange{Min: 1, Max: 7}}},
			{Name: "pc_trim", Module: "percpu",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "pcctr"}, syzlang.IntRange{Min: 1, Max: 3}}},
			{Name: "pc_sum", Module: "percpu",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "pcctr"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#percpu", Switch: "percpu:trim_order", Module: "percpu",
				Subsystem: "lib/percpu", KernelVersion: "synthetic",
				Title: "KASAN: slab-out-of-bounds Write in pc_mark",
				Type:  "S-S", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "per-CPU write position raced across a migration; the OOB-write dual of T4#6. OOO migrates the observer at the scheduling point, so it reproduces with no assist.",
			},
		},
		Seeds: []string{
			"r0 = pc_open()\npc_mark(r0, 0x5)\npc_mark(r0, 0x6)\npc_mark(r0, 0x7)\npc_trim(r0, 0x2)\npc_mark(r0, 0x4)\npc_sum(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &pcInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// pcCalls is the module's call table, in Defs order.
var pcCalls = [...]func(*pcInstance, *kernel.Task, []uint64) uint64{
	(*pcInstance).pcOpen, // pc_open
	(*pcInstance).pcMark, // pc_mark
	(*pcInstance).pcTrim, // pc_trim
	(*pcInstance).pcSum,  // pc_sum
}

// Call implements Instance.
func (in *pcInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return pcCalls[nr](in, t, args)
}

func (in *pcInstance) pcOpen(t *kernel.Task, args []uint64) uint64 {
	ctr := t.Kzalloc(2)
	buf := t.Kzalloc(4)
	t.K.Mem.Write(kernel.Field(ctr, 0), uint64(buf))
	t.K.Mem.Write(kernel.Field(ctr, 1), 4)
	in.pos = append(in.pos, in.k.PerCPUAlloc(1))
	return in.res.add(ctr)
}

// pcMark is the fast-path writer: it records v at this CPU's position in
// the shared buffer and advances the position — no locks, no contention, by
// construction of the per-CPU slot.
func (in *pcInstance) pcMark(t *kernel.Task, args []uint64) uint64 {
	ctr, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("pc_mark")()
	pos := t.ThisCPUAddr(in.pos[int(args[0]-1)], 1)
	buf := t.ReadOnce(pcSiteBuf, kernel.Field(ctr, 0))
	i := t.Load(pcSitePosLd, pos)
	t.Store(pcSiteSlot, kernel.Field(trace.Addr(buf), int(i)), args[1])
	cap := t.K.Mem.Read(kernel.Field(ctr, 1))
	next := i + 1
	if next >= cap {
		next = 0
	}
	t.Store(pcSitePosSt, pos, next)
	return EOK
}

// pcTrim is the slow-path maintenance writer: it resets every CPU's
// position for the new capacity and installs a smaller buffer. The buggy
// ordering ("percpu:trim_order") lets the position resets be delayed past
// the buffer swap's commit, so a migrated fast-path writer pairs a stale
// large position with the new small buffer.
func (in *pcInstance) pcTrim(t *kernel.Task, args []uint64) uint64 {
	ctr, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	n := args[1]
	if n == 0 || n > 3 {
		return EINVAL
	}
	defer t.Enter("pc_trim")()
	buf := t.Kzalloc(int(n))
	base := in.pos[int(args[0]-1)]
	for cpu := 0; cpu < t.K.NrCPU(); cpu++ {
		t.Store(pcSitePosReset, base+trace.Addr(cpu*8), 0)
	}
	if !in.bugs.Has("percpu:trim_order") {
		t.Mb(pcSiteTrimMb)
	}
	t.Store(pcSiteBufPub, kernel.Field(ctr, 0), uint64(buf))
	t.Store(pcSiteCap, kernel.Field(ctr, 1), n)
	return EOK
}

// pcSum is the summation reader: it folds every CPU's position into one
// total, the percpu_counter_sum slow path. Read-only, so it can race with
// either writer without harm — it exists to give campaigns per-CPU load
// sites beyond the fast path. Other CPUs' slots are read with READ_ONCE,
// as the real slow path must (the owning CPU updates them concurrently).
func (in *pcInstance) pcSum(t *kernel.Task, args []uint64) uint64 {
	_, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("pc_sum")()
	base := in.pos[int(args[0]-1)]
	var sum uint64
	for cpu := 0; cpu < t.K.NrCPU(); cpu++ {
		sum += t.ReadOnce(pcSiteSumLd, base+trace.Addr(cpu*8))
	}
	return sum
}
