package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// rculist models the list-RCU idiom (list_add_rcu / list_for_each_entry_rcu):
// writers serialize on a spinlock and publish new nodes with
// rcu_assign_pointer; readers traverse lock-free under rcu_read_lock,
// following ->next pointers obtained with rcu_dereference; removal defers the
// free past a grace period.
//
// The bug ("rculist:assign_release") downgrades the head publication in
// rcl_add from rcu_assign_pointer (a release store) to a plain WRITE_ONCE.
// The node is kmalloc'd — NOT zeroed, poisoned by the allocator — so when
// the publication commits ahead of the node's initialization stores, a
// concurrent reader dereferences the node and follows a poisoned ->next:
// a wild pointer, and the fault oracle reports a general protection fault
// in the scanner. This is the missing-release pattern of real list-RCU
// fixes, on a linked structure rather than rcudev's single slot.
//
// Object layout:
//
//	list:      [0]=head [1]=writer lock
//	node:      kmalloc(2): [0]=val [1]=next
var (
	rclSiteAddLock   = site(0x48<<16+1, "rcl_add:spin_lock(list)")
	rclSiteVal       = site(0x48<<16+2, "rcl_add:node->val=v")
	rclSiteHeadSnap  = site(0x48<<16+3, "rcl_add:READ_ONCE(list->head)")
	rclSiteNext      = site(0x48<<16+4, "rcl_add:node->next=first")
	rclSitePub       = site(0x48<<16+5, "rcl_add:rcu_assign_pointer(list->head)")
	rclSiteAddUnlock = site(0x48<<16+6, "rcl_add:spin_unlock(list)")
	rclSiteDeref     = site(0x48<<16+7, "rcl_scan:rcu_dereference(list->head)")
	rclSiteScanVal   = site(0x48<<16+8, "rcl_scan:node->val")
	rclSiteScanNext  = site(0x48<<16+9, "rcl_scan:rcu_dereference(node->next)")
	rclSitePopLock   = site(0x48<<16+10, "rcl_pop:spin_lock(list)")
	rclSitePopHead   = site(0x48<<16+11, "rcl_pop:READ_ONCE(list->head)")
	rclSitePopNext   = site(0x48<<16+12, "rcl_pop:first->next")
	rclSiteUnpub     = site(0x48<<16+13, "rcl_pop:WRITE_ONCE(list->head,next)")
	rclSitePopUnlock = site(0x48<<16+14, "rcl_pop:spin_unlock(list)")
)

type rclInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "rculist",
		Defs: []*syzlang.SyscallDef{
			{Name: "rcl_open", Module: "rculist", Ret: "rculist"},
			{Name: "rcl_add", Module: "rculist",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rculist"}, syzlang.IntRange{Min: 1, Max: 7}}},
			{Name: "rcl_scan", Module: "rculist",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rculist"}}},
			{Name: "rcl_pop", Module: "rculist",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rculist"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#rculist", Switch: "rculist:assign_release", Module: "rculist",
				Subsystem: "rculist", KernelVersion: "synthetic",
				Title: "general protection fault in rcl_scan",
				Type:  "S-S", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "list-RCU publication without release: a reader follows the poisoned ->next of a half-initialized node.",
			},
		},
		Seeds: []string{
			"r0 = rcl_open()\nrcl_add(r0, 0x3)\nrcl_add(r0, 0x4)\nrcl_scan(r0)\nrcl_pop(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &rclInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// rclCalls is the module's call table, in Defs order.
var rclCalls = [...]func(*rclInstance, *kernel.Task, []uint64) uint64{
	(*rclInstance).rclOpen, // rcl_open
	(*rclInstance).rclAdd,  // rcl_add
	(*rclInstance).rclScan, // rcl_scan
	(*rclInstance).rclPop,  // rcl_pop
}

// Call implements Instance.
func (in *rclInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return rclCalls[nr](in, t, args)
}

func (in *rclInstance) rclOpen(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(2))
}

// rclAdd pushes a new node at the head. The node comes from kmalloc — its
// words hold allocator poison until the two initialization stores land, so
// ordering them before the publication is load-bearing.
func (in *rclInstance) rclAdd(t *kernel.Task, args []uint64) uint64 {
	list, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rcl_add")()
	t.SpinLock(rclSiteAddLock, kernel.Field(list, 1), "rcl_list")
	node := t.Kmalloc(2)
	t.Store(rclSiteVal, kernel.Field(node, 0), args[1])
	first := t.ReadOnce(rclSiteHeadSnap, kernel.Field(list, 0))
	t.Store(rclSiteNext, kernel.Field(node, 1), first)
	if in.bugs.Has("rculist:assign_release") {
		// The bug: relaxed publication — nothing orders the node's
		// initialization before the head swing.
		t.WriteOnce(rclSitePub, kernel.Field(list, 0), uint64(node))
	} else {
		t.RcuAssignPointer(rclSitePub, kernel.Field(list, 0), uint64(node))
	}
	t.SpinUnlock(rclSiteAddUnlock, kernel.Field(list, 1))
	return EOK
}

// rclScan walks the list under rcu_read_lock and sums the values. The walk
// is bounded so a cyclic corruption degrades into a sum, not a livelock; a
// poisoned ->next is a wild pointer and faults on the very next value load.
func (in *rclInstance) rclScan(t *kernel.Task, args []uint64) uint64 {
	list, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rcl_scan")()
	rcu := t.K.RCU()
	rcu.ReadLock(t)
	defer rcu.ReadUnlock(t)
	n := t.RcuDereference(rclSiteDeref, kernel.Field(list, 0))
	var sum uint64
	for hops := 0; n != 0 && hops < 8; hops++ {
		sum += t.Load(rclSiteScanVal, kernel.Field(trace.Addr(n), 0))
		n = t.RcuDereference(rclSiteScanNext, kernel.Field(trace.Addr(n), 1))
	}
	return sum
}

// rclPop unlinks the head node and frees it after a grace period — the
// correct deferred-reclamation half of the protocol, serialized against
// rclAdd by the writer lock.
func (in *rclInstance) rclPop(t *kernel.Task, args []uint64) uint64 {
	list, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rcl_pop")()
	t.SpinLock(rclSitePopLock, kernel.Field(list, 1), "rcl_list")
	first := t.ReadOnce(rclSitePopHead, kernel.Field(list, 0))
	if first == 0 {
		t.SpinUnlock(rclSitePopUnlock, kernel.Field(list, 1))
		return EAGAIN
	}
	next := t.Load(rclSitePopNext, kernel.Field(trace.Addr(first), 1))
	t.WriteOnce(rclSiteUnpub, kernel.Field(list, 0), next)
	t.SpinUnlock(rclSitePopUnlock, kernel.Field(list, 1))
	t.K.RCU().Synchronize(t)
	t.Kfree(trace.Addr(first))
	return EOK
}
