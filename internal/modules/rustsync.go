package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
)

// rustsync reproduces the paper's Fig. 10 (§10.4): a synthetic OOO bug in a
// Rust kernel module using Ordering::Relaxed atomics — the classic
// store-buffering (SB) litmus shape. Thread 1 stores x=1 and loads y;
// thread 2 stores y=1 and loads x; a later checker asserts that at least
// one thread observed the other's store. Relaxed ordering (modelled as
// WRITE_ONCE/READ_ONCE, which the LKMM also leaves unordered) permits
// store-load reordering: both threads can read 0, violating the assertion —
// exactly what OEMU's delayed stores emulate. Under sequential consistency
// (every in-order interleaving) the outcome is impossible, so the checker
// cannot fire without reordering.
//
// Object layout: pair: [0]=x [1]=y [2]=r1 [3]=r2 [4]=done1 [5]=done2
var (
	rustSiteX     = site(rustBase+1, "thread1:x.store(1,Relaxed)")
	rustSiteLoadY = site(rustBase+2, "thread1:y.load(Relaxed)")
	rustSiteR1    = site(rustBase+3, "thread1:r1=..")
	rustSiteDone1 = site(rustBase+4, "thread1:done1=1")
	rustSiteY     = site(rustBase+5, "thread2:y.store(1,Relaxed)")
	rustSiteLoadX = site(rustBase+6, "thread2:x.load(Relaxed)")
	rustSiteR2    = site(rustBase+7, "thread2:r2=..")
	rustSiteDone2 = site(rustBase+8, "thread2:done2=1")
	rustSiteChk   = site(rustBase+9, "check:loads")
)

type rustInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "rustsync",
		Defs: []*syzlang.SyscallDef{
			{Name: "rust_pair", Module: "rustsync", Ret: "rust_obj"},
			{Name: "rust_thread1", Module: "rustsync",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rust_obj"}}},
			{Name: "rust_thread2", Module: "rustsync",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rust_obj"}}},
			{Name: "rust_check", Module: "rustsync",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "rust_obj"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "FIG10", Switch: "rustsync:relaxed_sb", Module: "rustsync",
				Subsystem: "rust", KernelVersion: "synthetic",
				Title: "kernel BUG: Relaxed store buffering: both threads read 0 in rust_check",
				Type:  "S-L", Table: 0, OFencePattern: false, Repro: "yes",
				Note: "Fig. 10: Ordering::Relaxed store-buffering; the switch only gates the checker (the racy code is always 'buggy' — Relaxed provides no ordering by design)",
			},
		},
		Seeds: []string{
			"r0 = rust_pair()\nrust_thread1(r0)\nrust_thread2(r0)\nrust_check(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &rustInstance{bugs: bugs}
			return in
		},
	})
}

// rustCalls is the module's call table, in Defs order.
var rustCalls = [...]func(*rustInstance, *kernel.Task, []uint64) uint64{
	(*rustInstance).pair,    // rust_pair
	(*rustInstance).thread1, // rust_thread1
	(*rustInstance).thread2, // rust_thread2
	(*rustInstance).check,   // rust_check
}

// Call implements Instance.
func (in *rustInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return rustCalls[nr](in, t, args)
}

func (in *rustInstance) pair(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(6))
}

func (in *rustInstance) thread1(t *kernel.Task, args []uint64) uint64 {
	p, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rust_thread1")()
	t.WriteOnce(rustSiteX, kernel.Field(p, 0), 1)      // x.store(1, Relaxed)
	r := t.ReadOnce(rustSiteLoadY, kernel.Field(p, 1)) // y.load(Relaxed)
	t.WriteOnce(rustSiteR1, kernel.Field(p, 2), r)
	t.WriteOnce(rustSiteDone1, kernel.Field(p, 4), 1)
	return r
}

func (in *rustInstance) thread2(t *kernel.Task, args []uint64) uint64 {
	p, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rust_thread2")()
	t.WriteOnce(rustSiteY, kernel.Field(p, 1), 1)      // y.store(1, Relaxed)
	r := t.ReadOnce(rustSiteLoadX, kernel.Field(p, 0)) // x.load(Relaxed)
	t.WriteOnce(rustSiteR2, kernel.Field(p, 3), r)
	t.WriteOnce(rustSiteDone2, kernel.Field(p, 5), 1)
	return r
}

// check is the Fig. 10 assertion thread: assert!(x == 1 || y == 1) in the
// observed-register form (both threads read 0 == both observed pre-store
// state).
func (in *rustInstance) check(t *kernel.Task, args []uint64) uint64 {
	p, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rust_check")()
	if t.Load(rustSiteChk, kernel.Field(p, 4)) == 0 ||
		t.Load(rustSiteChk, kernel.Field(p, 5)) == 0 {
		return EAGAIN // both threads must have run
	}
	r1 := t.Load(rustSiteChk, kernel.Field(p, 2))
	r2 := t.Load(rustSiteChk, kernel.Field(p, 3))
	if in.bugs.Has("rustsync:relaxed_sb") {
		t.Assert(r1 == 1 || r2 == 1, "Relaxed store buffering: both threads read 0")
	}
	return r1<<1 | r2
}
