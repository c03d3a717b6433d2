package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
)

// btrfs reproduces the bug class of the paper's citation [8] (Borisov 2019,
// 6e7ca09b583d: "btrfs: Fix deadlock caused by missing memory barrier") —
// a LOST WAKEUP from store-load reordering, the classic sleep/wakeup SB
// shape:
//
//	waiter:  waiting = 1;  smp_mb();  if (cond) return; else sleep();
//	waker:   cond = 1;     smp_mb();  if (waiting) wake();
//
// Without the full barriers, each side's store may be delayed past its
// load: the waiter reads cond == 0 (the waker's store still buffered) and
// goes to sleep, while the waker reads waiting == 0 (the waiter's store
// still buffered) and skips the wakeup — the waiter hangs. Only smp_mb()
// forbids store-load reordering (Table 1), making this the corpus's
// store-load (S-L) representative. The switch "btrfs:wake_mb" removes both
// barriers.
//
// The sleep is modelled as a bounded wait (wait_event_timeout-style): on
// timeout the waiter reports the hang through the semantic oracle
// ("INFO: task hung ..."), mirroring the hung-task detector that caught
// the original bug.
//
// Object layout: txn: [0]=cond (commit done) [1]=waiting [2]=woken
var (
	btrfsSiteWaiting  = site(0x41<<16+1, "btrfs_wait:txn->waiting=1")
	btrfsSiteWaitMb   = site(0x41<<16+2, "btrfs_wait:smp_mb")
	btrfsSiteWaitCond = site(0x41<<16+3, "btrfs_wait:load txn->cond")
	btrfsSiteWoken    = site(0x41<<16+4, "btrfs_wait:load txn->woken")
	btrfsSiteWaitClr  = site(0x41<<16+5, "btrfs_wait:txn->waiting=0")
	btrfsSiteCond     = site(0x41<<16+6, "btrfs_commit:txn->cond=1")
	btrfsSiteWakeMb   = site(0x41<<16+7, "btrfs_commit:smp_mb")
	btrfsSiteWaitLd   = site(0x41<<16+8, "btrfs_commit:load txn->waiting")
	btrfsSiteWake     = site(0x41<<16+9, "btrfs_commit:txn->woken=1")
	btrfsSiteTimeout  = site(0x41<<16+10, "btrfs_wait:timeout check load txn->cond")
)

// btrfsSleepSpins bounds the waiter's sleep (timeout model).
const btrfsSleepSpins = 40

type btrfsInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "btrfs",
		Defs: []*syzlang.SyscallDef{
			{Name: "btrfs_txn_start", Module: "btrfs", Ret: "btrfs_txn"},
			{Name: "btrfs_txn_wait", Module: "btrfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "btrfs_txn"}}},
			{Name: "btrfs_txn_commit", Module: "btrfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "btrfs_txn"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#btrfs", Switch: "btrfs:wake_mb", Module: "btrfs",
				Subsystem: "btrfs", KernelVersion: "5.0",
				SoftTitle: "INFO: task hung in btrfs_txn_wait (lost wakeup)",
				Type:      "S-L/S-S", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "the paper's citation [8]: sleep/wakeup SB shape; only smp_mb orders store-load, so this is the S-L corpus representative",
			},
		},
		Seeds: []string{
			"r0 = btrfs_txn_start()\nbtrfs_txn_commit(r0)\nbtrfs_txn_wait(r0)\n",
			"r0 = btrfs_txn_start()\nbtrfs_txn_wait(r0)\nbtrfs_txn_commit(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &btrfsInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// btrfsCalls is the module's call table, in Defs order.
var btrfsCalls = [...]func(*btrfsInstance, *kernel.Task, []uint64) uint64{
	(*btrfsInstance).start,  // btrfs_txn_start
	(*btrfsInstance).wait,   // btrfs_txn_wait
	(*btrfsInstance).commit, // btrfs_txn_commit
}

// Call implements Instance.
func (in *btrfsInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return btrfsCalls[nr](in, t, args)
}

func (in *btrfsInstance) start(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(3))
}

// wait is wait_for_commit(): announce waiting, check the condition, sleep
// until woken (bounded).
func (in *btrfsInstance) wait(t *kernel.Task, args []uint64) uint64 {
	txn, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("btrfs_txn_wait")()
	t.Store(btrfsSiteWaiting, kernel.Field(txn, 1), 1)
	if !in.bugs.Has("btrfs:wake_mb") {
		t.Mb(btrfsSiteWaitMb)
	}
	if t.Load(btrfsSiteWaitCond, kernel.Field(txn, 0)) == 1 {
		t.Store(btrfsSiteWaitClr, kernel.Field(txn, 1), 0)
		return EOK // already committed: no sleep
	}
	// Sleep: woken only by the waker's explicit wake (checking cond again
	// here is exactly what the barrier pair makes unnecessary — a sleeper
	// relies on the wakeup).
	for spin := 0; spin < btrfsSleepSpins; spin++ {
		if t.Load(btrfsSiteWoken, kernel.Field(txn, 2)) == 1 {
			t.Store(btrfsSiteWaitClr, kernel.Field(txn, 1), 0)
			return EOK
		}
		if t.Sched() != nil && t.Sched().Peers() > 0 {
			t.Sched().BlockSpin()
			t.Sched().ClearSpin()
		}
	}
	t.Store(btrfsSiteWaitClr, kernel.Field(txn, 1), 0)
	// Timed out. If the commit HAS happened by now (cond visible) yet we
	// were never woken, the wakeup was lost — the hung-task oracle. A
	// timeout with no commit at all is an ordinary ETIME, not a bug.
	if t.Load(btrfsSiteTimeout, kernel.Field(txn, 0)) == 1 {
		t.SoftReport("INFO: task hung in btrfs_txn_wait (lost wakeup)")
	}
	return ^uint64(61) // -ETIME
}

// commit is the transaction commit: publish the condition, then wake any
// announced waiter.
func (in *btrfsInstance) commit(t *kernel.Task, args []uint64) uint64 {
	txn, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("btrfs_txn_commit")()
	t.Store(btrfsSiteCond, kernel.Field(txn, 0), 1)
	if !in.bugs.Has("btrfs:wake_mb") {
		t.Mb(btrfsSiteWakeMb)
	}
	if t.Load(btrfsSiteWaitLd, kernel.Field(txn, 1)) == 1 {
		t.Store(btrfsSiteWake, kernel.Field(txn, 2), 1)
	}
	return EOK
}
