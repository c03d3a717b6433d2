package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// rcudev exercises the RCU substrate with the canonical publish/read/
// reclaim protocol of an RCU-protected device entry:
//
//   - rcu_dev_register() initializes the entry and publishes it with
//     rcu_assign_pointer (a release store). The bug switch
//     "rcu:assign_release" replaces it with a plain WRITE_ONCE — the
//     publication then races ahead of the initialization, and a concurrent
//     reader calls the entry's uninitialized handler: the OOO bug class
//     behind many real "missing rcu_assign_pointer/smp_wmb" fixes.
//   - rcu_dev_read() dereferences under rcu_read_lock and calls the
//     handler.
//   - rcu_dev_unregister() unpublishes and frees the old entry after
//     synchronize_rcu() — exercising grace periods under the deterministic
//     scheduler (with the correct barrier this whole protocol survives the
//     entire hypothetical-barrier test battery).
//
// Object layout: dev: [0]=entry ; entry: [0]=handler [1]=cookie
var (
	rcuSiteFn    = site(0x42<<16+1, "rcu_dev_register:entry->handler=fn")
	rcuSiteCk    = site(0x42<<16+2, "rcu_dev_register:entry->cookie=c")
	rcuSitePub   = site(0x42<<16+3, "rcu_dev_register:rcu_assign_pointer(dev->entry)")
	rcuSiteDeref = site(0x42<<16+4, "rcu_dev_read:rcu_dereference(dev->entry)")
	rcuSiteFnLd  = site(0x42<<16+5, "rcu_dev_read:entry->handler")
	rcuSiteCall  = site(0x42<<16+6, "rcu_dev_read:call handler")
	rcuSiteUnpub = site(0x42<<16+7, "rcu_dev_unregister:WRITE_ONCE(dev->entry,0)")
)

type rcuInstance struct {
	bugs    BugSet
	res     resTable
	handler uint64
}

func init() {
	register(&ModuleInfo{
		Name: "rcudev",
		Defs: []*syzlang.SyscallDef{
			{Name: "rcu_dev_create", Module: "rcudev", Ret: "rcu_dev"},
			{Name: "rcu_dev_register", Module: "rcudev",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rcu_dev"}, syzlang.IntRange{Min: 1, Max: 0xff}}},
			{Name: "rcu_dev_read", Module: "rcudev",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rcu_dev"}}},
			{Name: "rcu_dev_unregister", Module: "rcudev",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rcu_dev"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#rcu", Switch: "rcu:assign_release", Module: "rcudev",
				Subsystem: "rcu", KernelVersion: "synthetic",
				Title: "BUG: unable to handle kernel NULL pointer dereference in rcu_dev_read",
				Type:  "S-S", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "publication with plain WRITE_ONCE instead of rcu_assign_pointer (release): the missing-release class behind many real RCU fixes",
			},
		},
		Seeds: []string{
			"r0 = rcu_dev_create()\nrcu_dev_register(r0, 0x7)\nrcu_dev_read(r0)\n",
			"r0 = rcu_dev_create()\nrcu_dev_register(r0, 0x7)\nrcu_dev_read(r0)\nrcu_dev_unregister(r0)\nrcu_dev_read(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &rcuInstance{bugs: bugs}
			in.handler = k.RegisterFn(func(t *kernel.Task, arg uint64) uint64 {
				return arg
			})
			return in
		},
	})
}

// rcuCalls is the module's call table, in Defs order.
var rcuCalls = [...]func(*rcuInstance, *kernel.Task, []uint64) uint64{
	(*rcuInstance).create,     // rcu_dev_create
	(*rcuInstance).register,   // rcu_dev_register
	(*rcuInstance).read,       // rcu_dev_read
	(*rcuInstance).unregister, // rcu_dev_unregister
}

// Call implements Instance.
func (in *rcuInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return rcuCalls[nr](in, t, args)
}

func (in *rcuInstance) create(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(1))
}

func (in *rcuInstance) register(t *kernel.Task, args []uint64) uint64 {
	dev, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rcu_dev_register")()
	entry := t.Kzalloc(2)
	t.Store(rcuSiteFn, kernel.Field(entry, 0), in.handler)
	t.Store(rcuSiteCk, kernel.Field(entry, 1), args[1])
	if in.bugs.Has("rcu:assign_release") {
		// The bug: a relaxed publication — no ordering against the
		// initialization stores above.
		t.WriteOnce(rcuSitePub, kernel.Field(dev, 0), uint64(entry))
	} else {
		t.RcuAssignPointer(rcuSitePub, kernel.Field(dev, 0), uint64(entry))
	}
	return EOK
}

func (in *rcuInstance) read(t *kernel.Task, args []uint64) uint64 {
	dev, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rcu_dev_read")()
	rcu := t.K.RCU()
	rcu.ReadLock(t)
	defer rcu.ReadUnlock(t)
	entry := t.RcuDereference(rcuSiteDeref, kernel.Field(dev, 0))
	if entry == 0 {
		return EAGAIN
	}
	fn := t.Load(rcuSiteFnLd, kernel.Field(trace.Addr(entry), 0))
	return t.CallFn(rcuSiteCall, fn, entry)
}

func (in *rcuInstance) unregister(t *kernel.Task, args []uint64) uint64 {
	dev, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rcu_dev_unregister")()
	old := t.ReadOnce(rcuSiteUnpub, kernel.Field(dev, 0))
	if old == 0 {
		return EAGAIN
	}
	t.WriteOnce(rcuSiteUnpub, kernel.Field(dev, 0), 0)
	// Correct deferred reclamation: free only after a grace period.
	t.K.RCU().Synchronize(t)
	t.Kfree(trace.Addr(old))
	return EOK
}
