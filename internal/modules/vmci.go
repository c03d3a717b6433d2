package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// vmci reproduces Table 3 bug #3: "general protection fault in
// add_wait_queue" (VMCI queue-pair subsystem). vmci_qp_alloc() kmallocs the
// queue pair — leaving its fields poisoned, not zeroed — initializes the
// wait-queue pointer, and publishes the pair. Without the smp_wmb()
// ("vmci:qp_wmb"), a concurrent waiter observes the published pair but a
// still-poisoned qp->wq and dereferences the poison pattern: a wild access,
// i.e. a general protection fault (not a NULL dereference — the
// distinguishing flavour of this bug).
//
// Object layout:
//
//	vmci ctx: [0]=qpair
//	qp:       [0]=wq [1]=produce_size   (kmalloc'd: poisoned)
//	wq:       [0]=head
var (
	vmciSiteQpWq   = site(vmciBase+1, "vmci_qp_alloc:qp->wq=wq")
	vmciSiteQpSize = site(vmciBase+2, "vmci_qp_alloc:qp->produce_size=sz")
	vmciSiteWmb    = site(vmciBase+3, "vmci_qp_alloc:smp_wmb")
	vmciSitePub    = site(vmciBase+4, "vmci_qp_alloc:WRITE_ONCE(ctx->qpair,qp)")
	vmciSiteLoadQp = site(vmciBase+5, "vmci_qp_wait:READ_ONCE(ctx->qpair)")
	vmciSiteLoadWq = site(vmciBase+6, "vmci_qp_wait:qp->wq")
	vmciSiteWqHead = site(vmciBase+7, "add_wait_queue:wq->head")
	vmciSiteDetQp  = site(vmciBase+8, "vmci_qp_destroy:READ_ONCE(ctx->qpair)")
	vmciSiteDetNil = site(vmciBase+9, "vmci_qp_destroy:WRITE_ONCE(ctx->qpair,0)")
)

type vmciInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "vmci",
		Defs: []*syzlang.SyscallDef{
			{Name: "vmci_create", Module: "vmci", Ret: "vmci_ctx"},
			{Name: "vmci_qp_alloc", Module: "vmci",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "vmci_ctx"}, syzlang.IntRange{Min: 1, Max: 64}}},
			{Name: "vmci_qp_wait", Module: "vmci",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "vmci_ctx"}}},
			{Name: "vmci_qp_destroy", Module: "vmci",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "vmci_ctx"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#3", Switch: "vmci:qp_wmb", Module: "vmci",
				Subsystem: "VMCI", KernelVersion: "v6.5-rc6",
				Title: "general protection fault in add_wait_queue",
				Type:  "S-S", Status: "Reported", Table: 3, OFencePattern: false,
				Note: "kmalloc (not kzalloc) object: the unordered observer reads slab poison, hence a GPF",
			},
			{
				ID: "X#uaf", Switch: "vmci:uaf_race", Module: "vmci",
				Subsystem: "VMCI", KernelVersion: "synthetic",
				Title: "KASAN: use-after-free Read in vmci_qp_wait",
				Type:  "", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "plain interleaving (non-OOO) use-after-free: destroy frees the pair while a waiter holds it; used to validate the OOO triage and the interleaving-only baseline",
			},
		},
		Seeds: []string{
			"r0 = vmci_create()\nvmci_qp_alloc(r0, 0x10)\nvmci_qp_wait(r0)\n",
			"r0 = vmci_create()\nvmci_qp_alloc(r0, 0x10)\nvmci_qp_wait(r0)\nvmci_qp_destroy(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &vmciInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// vmciCalls is the module's call table, in Defs order.
var vmciCalls = [...]func(*vmciInstance, *kernel.Task, []uint64) uint64{
	(*vmciInstance).create,    // vmci_create
	(*vmciInstance).qpAlloc,   // vmci_qp_alloc
	(*vmciInstance).qpWait,    // vmci_qp_wait
	(*vmciInstance).qpDestroy, // vmci_qp_destroy
}

// Call implements Instance.
func (in *vmciInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return vmciCalls[nr](in, t, args)
}

func (in *vmciInstance) create(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(1))
}

func (in *vmciInstance) qpAlloc(t *kernel.Task, args []uint64) uint64 {
	ctx, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("vmci_qp_alloc")()
	qp := t.Kmalloc(2) // kmalloc: fields are poison until written
	wq := t.Kzalloc(1)
	t.Store(vmciSiteQpWq, kernel.Field(qp, 0), uint64(wq))
	t.Store(vmciSiteQpSize, kernel.Field(qp, 1), args[1])
	if !in.bugs.Has("vmci:qp_wmb") {
		t.Wmb(vmciSiteWmb)
	}
	t.WriteOnce(vmciSitePub, kernel.Field(ctx, 0), uint64(qp))
	return EOK
}

func (in *vmciInstance) qpWait(t *kernel.Task, args []uint64) uint64 {
	ctx, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("vmci_qp_wait")()
	qp := t.ReadOnce(vmciSiteLoadQp, kernel.Field(ctx, 0))
	if qp == 0 {
		return EAGAIN
	}
	wq := t.Load(vmciSiteLoadWq, kernel.Field(trace.Addr(qp), 0))
	defer t.Enter("add_wait_queue")()
	return t.Load(vmciSiteWqHead, trace.Addr(wq))
}

// qpDestroy tears the queue pair down. The "vmci:uaf_race" variant frees
// the pair immediately while readers may still hold the pointer — a plain
// interleaving use-after-free (no reordering involved); the fixed variant
// defers reclamation (RCU-style: unpublish, leak to the grace period).
func (in *vmciInstance) qpDestroy(t *kernel.Task, args []uint64) uint64 {
	ctx, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("vmci_qp_destroy")()
	qp := t.ReadOnce(vmciSiteDetQp, kernel.Field(ctx, 0))
	if qp == 0 {
		return EAGAIN
	}
	if in.bugs.Has("vmci:uaf_race") {
		t.Kfree(trace.Addr(qp))
		t.WriteOnce(vmciSiteDetNil, kernel.Field(ctx, 0), 0)
	} else {
		t.WriteOnce(vmciSiteDetNil, kernel.Field(ctx, 0), 0)
		// Reclamation deferred past the grace period (not modelled).
	}
	return EOK
}
