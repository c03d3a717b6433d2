package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// irdma makes the paper's §4.5 "concurrent accesses with hardware"
// discussion concrete — the RDMA/irdma fix it cites ([85], Saleem 2023,
// 4984eb51453f "RDMA/irdma: Add missing read barriers"): a completion-queue
// entry is DMA-written BY THE DEVICE (valid flag last, after the payload),
// and the driver's poll loop reads the flag and then the payload. Without a
// read barrier between the two loads, the driver can pair a fresh valid
// flag with stale payload words.
//
// The "hardware" here is another memory agent driven through the same
// instrumented API: irdma_hw_complete() models the device's DMA engine
// writing a CQE (payload words, dma_wmb, valid flag) — which is exactly how
// OEMU would see a device if its accesses were visible (§4.5: "if we run
// the device driver with a proper hardware, we can trigger the OOO bug
// with OEMU"). The switch "irdma:cqe_rmb" removes the driver's barrier.
//
// Object layout: cq: [0]=valid [1]=wr_id [2]=status ; a zero wr_id on a
// valid CQE routes into the completion table at index 0 — an entry that is
// never allocated, so the driver writes its completion mark through NULL:
// "KASAN: null-ptr-deref Write in irdma_poll_cq".
var (
	irdmaSiteWr     = site(0x45<<16+1, "irdma_hw:cqe->wr_id=id (DMA)")
	irdmaSiteStatus = site(0x45<<16+2, "irdma_hw:cqe->status=OK (DMA)")
	irdmaSiteDmaWmb = site(0x45<<16+3, "irdma_hw:dma_wmb (device ordering)")
	irdmaSiteValid  = site(0x45<<16+4, "irdma_hw:cqe->valid=1 (DMA)")
	irdmaSitePollV  = site(0x45<<16+5, "irdma_poll_cq:load cqe->valid")
	irdmaSiteRmb    = site(0x45<<16+6, "irdma_poll_cq:smp_rmb")
	irdmaSitePollWr = site(0x45<<16+7, "irdma_poll_cq:load cqe->wr_id")
	irdmaSiteWrTab  = site(0x45<<16+8, "irdma_poll_cq:wr_table[wr_id]")
	irdmaSiteWrDone = site(0x45<<16+9, "irdma_poll_cq:wr->done=1")
	irdmaSiteClear  = site(0x45<<16+10, "irdma_poll_cq:cqe->valid=0")
	irdmaSitePost   = site(0x45<<16+11, "irdma_post:wr_table[id]=wr")
)

const irdmaTableSlots = 4

type irdmaInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "irdma",
		Defs: []*syzlang.SyscallDef{
			{Name: "irdma_open", Module: "irdma", Ret: "irdma_cq"},
			{Name: "irdma_post", Module: "irdma",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "irdma_cq"}, syzlang.IntRange{Min: 1, Max: irdmaTableSlots - 1}}},
			{Name: "irdma_hw_complete", Module: "irdma",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "irdma_cq"}, syzlang.IntRange{Min: 1, Max: irdmaTableSlots - 1}}},
			{Name: "irdma_poll_cq", Module: "irdma",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "irdma_cq"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#irdma", Switch: "irdma:cqe_rmb", Module: "irdma",
				Subsystem: "RDMA", KernelVersion: "6.4",
				Title: "KASAN: null-ptr-deref Write in irdma_poll_cq",
				Type:  "L-L", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "the paper's §4.5 hardware-concurrency case ([85]): load-load reordering against DMA writes from the device",
			},
		},
		Seeds: []string{
			"r0 = irdma_open()\nirdma_post(r0, 0x2)\nirdma_hw_complete(r0, 0x2)\nirdma_poll_cq(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &irdmaInstance{bugs: bugs}
			return in
		},
	})
}

// irdmaCalls is the module's call table, in Defs order.
var irdmaCalls = [...]func(*irdmaInstance, *kernel.Task, []uint64) uint64{
	(*irdmaInstance).open,       // irdma_open
	(*irdmaInstance).post,       // irdma_post
	(*irdmaInstance).hwComplete, // irdma_hw_complete
	(*irdmaInstance).pollCQ,     // irdma_poll_cq
}

// Call implements Instance.
func (in *irdmaInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return irdmaCalls[nr](in, t, args)
}

// open allocates the CQE ring slot and the work-request table. Slot 0 of
// the table is intentionally never populated: a stale-zero wr_id routes
// there.
func (in *irdmaInstance) open(t *kernel.Task, args []uint64) uint64 {
	cq := t.Kzalloc(3 + irdmaTableSlots) // cqe(3) + wr_table
	return in.res.add(cq)
}

// post registers a work request in the table (the driver side of a send).
func (in *irdmaInstance) post(t *kernel.Task, args []uint64) uint64 {
	cq, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	id := args[1]
	if id == 0 || id >= irdmaTableSlots {
		return EINVAL
	}
	defer t.Enter("irdma_post")()
	wr := t.Kzalloc(2)
	// Publish the work request with release ordering: the device (and the
	// poll path) consume the table entry.
	t.StoreRelease(irdmaSitePost, kernel.Field(cq, 3+int(id)), uint64(wr))
	return EOK
}

// hwComplete models the DEVICE: a DMA engine writing a completion entry —
// payload first, dma_wmb, then the valid flag. (On real hardware these
// stores come over the bus; their ordering contract is identical, which is
// the §4.5 point.)
func (in *irdmaInstance) hwComplete(t *kernel.Task, args []uint64) uint64 {
	cq, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	id := args[1]
	if id == 0 || id >= irdmaTableSlots {
		return EINVAL
	}
	defer t.Enter("irdma_hw_dma")()
	t.Store(irdmaSiteWr, kernel.Field(cq, 1), id)    // cqe->wr_id
	t.Store(irdmaSiteStatus, kernel.Field(cq, 2), 1) // cqe->status = OK
	t.Wmb(irdmaSiteDmaWmb)                           // the device's dma_wmb
	t.Store(irdmaSiteValid, kernel.Field(cq, 0), 1)  // cqe->valid = 1
	return EOK
}

// pollCQ is the driver's poll loop: check the valid flag, then consume the
// payload. The missing smp_rmb between the two is the bug.
func (in *irdmaInstance) pollCQ(t *kernel.Task, args []uint64) uint64 {
	cq, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("irdma_poll_cq")()
	if t.Load(irdmaSitePollV, kernel.Field(cq, 0)) == 0 {
		return EAGAIN // nothing completed
	}
	if !in.bugs.Has("irdma:cqe_rmb") {
		t.Rmb(irdmaSiteRmb) // the fix of [85]
	}
	id := t.Load(irdmaSitePollWr, kernel.Field(cq, 1))
	if id >= irdmaTableSlots {
		return EINVAL
	}
	wr := t.Load(irdmaSiteWrTab, kernel.Field(cq, 3+int(id)))
	// Mark the work request complete — NULL if wr_id was stale.
	t.Store(irdmaSiteWrDone, kernel.Field(trace.Addr(wr), 0), 1)
	t.Store(irdmaSiteClear, kernel.Field(cq, 0), 0)
	return id
}
