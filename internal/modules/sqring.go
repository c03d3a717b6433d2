package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// sqring models an io_uring-style single-producer submission ring: the
// producer writes a submission entry into ring[tail & mask] and then
// publishes the new tail; the consumer reads the tail, and any entry between
// its head and that tail is supposed to be fully initialized.
//
// The bug ("sqring:tail_release") downgrades the tail publication from
// smp_store_release to a plain WRITE_ONCE. Under TSO-with-store-buffer
// emulation the entry store and the tail store sit in the producer's buffer
// in order, but the paper's S-S reordering lets the tail commit FIRST: the
// consumer then observes tail advanced while ring[head & mask] still holds
// its zero-initialized value — an uninitialized submission entry, caught by
// the consumer's sanity oracle.
//
// Object layout:
//
//	sq:        [0]=tail [1]=head [2]=ring
//	ring:      kzalloc(4) words (mask 3)
var (
	sqSiteSqe      = site(0x47<<16+1, "sq_submit:ring[tail&mask]=sqe")
	sqSiteTailRel  = site(0x47<<16+2, "sq_submit:store_release(sq->tail)")
	sqSiteHead     = site(0x47<<16+3, "cq_reap:sq->head")
	sqSiteTailLd   = site(0x47<<16+4, "cq_reap:READ_ONCE(sq->tail)")
	sqSiteEntry    = site(0x47<<16+5, "cq_reap:ring[head&mask]")
	sqSiteHeadAdv  = site(0x47<<16+6, "cq_reap:sq->head=head+1")
	sqSiteTailSnap = site(0x47<<16+7, "sq_submit:READ_ONCE(sq->tail)")
)

type sqInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "sqring",
		Defs: []*syzlang.SyscallDef{
			{Name: "sq_setup", Module: "sqring", Ret: "sqring"},
			{Name: "sq_submit", Module: "sqring",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sqring"}, syzlang.IntRange{Min: 1, Max: 7}}},
			{Name: "cq_reap", Module: "sqring",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sqring"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#sqring", Switch: "sqring:tail_release", Module: "sqring",
				Subsystem: "io_uring", KernelVersion: "synthetic",
				Title: "kernel BUG: sqe visible before its payload in cq_reap",
				Type:  "S-S", Table: 0, OFencePattern: true, Repro: "yes",
				Note: "classic publish-subscribe S-S pair: entry payload vs tail index.",
			},
		},
		Seeds: []string{
			"r0 = sq_setup()\nsq_submit(r0, 0x7)\ncq_reap(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &sqInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// sqCalls is the module's call table, in Defs order.
var sqCalls = [...]func(*sqInstance, *kernel.Task, []uint64) uint64{
	(*sqInstance).sqSetup,  // sq_setup
	(*sqInstance).sqSubmit, // sq_submit
	(*sqInstance).cqReap,   // cq_reap
}

// Call implements Instance.
func (in *sqInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return sqCalls[nr](in, t, args)
}

func (in *sqInstance) sqSetup(t *kernel.Task, args []uint64) uint64 {
	sq := t.Kzalloc(3)
	ring := t.Kzalloc(4)
	t.K.Mem.Write(kernel.Field(sq, 2), uint64(ring))
	return in.res.add(sq)
}

// sqSubmit is the producer: it fills the next submission entry and then
// publishes the advanced tail. Publication must carry release semantics —
// the bug switch drops them to a plain WRITE_ONCE.
func (in *sqInstance) sqSubmit(t *kernel.Task, args []uint64) uint64 {
	sq, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("sq_submit")()
	ring := trace.Addr(t.K.Mem.Read(kernel.Field(sq, 2)))
	tail := t.ReadOnce(sqSiteTailSnap, kernel.Field(sq, 0))
	t.Store(sqSiteSqe, kernel.Field(ring, int(tail&3)), args[1])
	if in.bugs.Has("sqring:tail_release") {
		t.WriteOnce(sqSiteTailRel, kernel.Field(sq, 0), tail+1)
	} else {
		t.StoreRelease(sqSiteTailRel, kernel.Field(sq, 0), tail+1)
	}
	return EOK
}

// cqReap is the consumer: any entry between head and the published tail must
// be initialized — a zero entry means the tail index became visible before
// its payload.
func (in *sqInstance) cqReap(t *kernel.Task, args []uint64) uint64 {
	sq, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("cq_reap")()
	head := t.Load(sqSiteHead, kernel.Field(sq, 1))
	tail := t.ReadOnce(sqSiteTailLd, kernel.Field(sq, 0))
	if head == tail {
		return EAGAIN
	}
	v := t.Load(sqSiteEntry, kernel.Field(trace.Addr(t.K.Mem.Read(kernel.Field(sq, 2))), int(head&3)))
	t.Assert(v != 0, "sqe visible before its payload")
	t.Store(sqSiteHeadAdv, kernel.Field(sq, 1), head+1)
	return v
}
