package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// sbitmap reproduces Table 4 bug #6 [Lei 2019, e6d1fa584e0d] "sbitmap: order
// READ/WRITE freed instance and setting clear bit" (5.1-rc1) — the one bug
// of the paper's benchmark that the paper's OZZ CANNOT reproduce (§6.2).
// The bug races on a per-CPU allocation hint: triggering it requires two
// threads that obtained the per-CPU hint address on the SAME CPU and then
// ran concurrently on different CPUs after a migration. The paper's OZZ
// pins its concurrent threads to distinct CPUs before executing system
// calls, so with pinned threads the racing accesses resolve to different
// per-CPU copies at execution time and the crash never fires.
//
// This OOO executor closes the gap: the sequential profiling phase
// runs both calls on CPU 0, so the per-CPU hint IS a shared location there
// and Algorithm 2 keeps it — the hint comes out annotated with the per-CPU
// sites (Hint.Migrate), and the executor migrates the observer back to
// CPU 0 at the scheduling point, reproducing the bug organically. (The
// paper instead verified its analysis by patching the kernel so both
// threads resolve the hint from the same CPU.)
//
// Protocol: sb_resize() resets this CPU's alloc hint and installs a smaller
// word map; sb_get() reads the map pointer and the hint and indexes
// map[hint]. The missing ordering ("sbitmap:freed_order") lets the hint
// reset be delayed past the map installation: a concurrent sb_get pairs the
// NEW small map with the STALE large hint — a slab-out-of-bounds read.
//
// Object layout:
//
//	sb:        [0]=map [1]=depth
//	map:       kzalloc(depth) words
//	hint:      per-CPU, 1 word
var (
	sbSiteHintReset = site(sbitmapBase+1, "sbitmap_resize:this_cpu(hint)=0")
	sbSiteMapPub    = site(sbitmapBase+2, "sbitmap_resize:sb->map=new")
	sbSiteDepth     = site(sbitmapBase+3, "sbitmap_resize:sb->depth=n")
	sbSiteOrderWmb  = site(sbitmapBase+4, "sbitmap_resize:smp_mb")
	sbSiteGetMap    = site(sbitmapBase+5, "sbitmap_get:sb->map")
	sbSiteGetHint   = site(sbitmapBase+6, "sbitmap_get:this_cpu(hint)")
	sbSiteGetWord   = site(sbitmapBase+7, "sbitmap_get:map[hint]")
	sbSiteSetHint   = site(sbitmapBase+8, "sbitmap_get:this_cpu(hint)=next")
)

type sbInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
	// hints is the per-CPU alloc-hint handle per sbitmap (parallel to
	// res).
	hints []trace.Addr
}

func init() {
	register(&ModuleInfo{
		Name: "sbitmap",
		Defs: []*syzlang.SyscallDef{
			{Name: "sb_init", Module: "sbitmap", Ret: "sbitmap"},
			{Name: "sb_get", Module: "sbitmap",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sbitmap"}}},
			{Name: "sb_resize", Module: "sbitmap",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sbitmap"}, syzlang.IntRange{Min: 1, Max: 3}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T4#6", Switch: "sbitmap:freed_order", Module: "sbitmap",
				Subsystem: "sbitmap", KernelVersion: "5.1-rc1",
				Title: "KASAN: slab-out-of-bounds Read in sbitmap_get",
				Type:  "S-S", Table: 4, OFencePattern: false, Repro: "yes",
				Note: "races on a per-CPU variable across a thread migration; the paper's pinned-thread OZZ cannot reproduce it (§6.2), this OOO executor migrates the observer at the scheduling point and can — with no assist switch.",
			},
		},
		Seeds: []string{
			"r0 = sb_init()\nsb_get(r0)\nsb_get(r0)\nsb_get(r0)\nsb_resize(r0, 0x3)\nsb_get(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &sbInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// sbCalls is the module's call table, in Defs order.
var sbCalls = [...]func(*sbInstance, *kernel.Task, []uint64) uint64{
	(*sbInstance).sbInit,   // sb_init
	(*sbInstance).sbGet,    // sb_get
	(*sbInstance).sbResize, // sb_resize
}

// Call implements Instance.
func (in *sbInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return sbCalls[nr](in, t, args)
}

func (in *sbInstance) sbInit(t *kernel.Task, args []uint64) uint64 {
	sb := t.Kzalloc(2)
	m := t.Kzalloc(4)
	t.K.Mem.Write(kernel.Field(sb, 0), uint64(m))
	t.K.Mem.Write(kernel.Field(sb, 1), 4)
	in.hints = append(in.hints, in.k.PerCPUAlloc(1))
	return in.res.add(sb)
}

// sbGet reads map[hint] and advances the hint — the reader of the race.
func (in *sbInstance) sbGet(t *kernel.Task, args []uint64) uint64 {
	sb, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("sbitmap_get")()
	hint := t.ThisCPUAddr(in.hints[int(args[0]-1)], 1)
	m := t.ReadOnce(sbSiteGetMap, kernel.Field(sb, 0))
	h := t.Load(sbSiteGetHint, hint)
	v := t.Load(sbSiteGetWord, kernel.Field(trace.Addr(m), int(h)))
	depth := t.K.Mem.Read(kernel.Field(sb, 1))
	next := h + 1
	if next >= depth {
		next = 0
	}
	t.Store(sbSiteSetHint, hint, next)
	return v
}

// sbResize shrinks the map and resets this CPU's hint — the writer of the
// race. The buggy ordering stores the hint reset BEFORE the map swap with
// no barrier, so the reset can be delayed past the swap's commit.
func (in *sbInstance) sbResize(t *kernel.Task, args []uint64) uint64 {
	sb, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	n := args[1]
	if n == 0 || n > 3 {
		return EINVAL
	}
	defer t.Enter("sbitmap_resize")()
	m := t.Kzalloc(int(n))
	// Reset every CPU's allocation hint for the new depth. The racing
	// reader resolves its own CPU's copy: with pinned threads the writer
	// and the reader therefore touch DIFFERENT addresses here, and only
	// the same address after a migration.
	base := in.hints[int(args[0]-1)]
	for cpu := 0; cpu < kernel.NrCPU; cpu++ {
		t.Store(sbSiteHintReset, base+trace.Addr(cpu*8), 0)
	}
	if !in.bugs.Has("sbitmap:freed_order") {
		t.Mb(sbSiteOrderWmb)
	}
	t.Store(sbSiteMapPub, kernel.Field(sb, 0), uint64(m))
	t.Store(sbSiteDepth, kernel.Field(sb, 1), n)
	return EOK
}
