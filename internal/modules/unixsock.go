package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// unixsock reproduces Table 4 bug #9 [Viro 2019, ae3b564179bf] "missing
// barriers in some of unix_sock ->addr and ->path accesses" (5.0-rc7):
// unix_bind() initializes u->path and then publishes u->addr with a write
// barrier, but readers such as unix_getname()/unix_copy_addr() loaded
// u->addr and then u->path with plain loads. Load-load reordering pairs a
// non-NULL addr with a stale NULL path dentry. The switch "unix:addr_rmb"
// removes the reader's ordering (the real fix used smp_store_release /
// smp_load_acquire).
//
// Object layout:
//
//	u:      [0]=addr [1]=path_dentry
//	addr:   [0]=len [1]=name
//	dentry: [0]=inode
var (
	unixSiteAddrLen  = site(unixBase+1, "unix_bind:addr->len=n")
	unixSiteAddrName = site(unixBase+2, "unix_bind:addr->name=h")
	unixSitePath     = site(unixBase+3, "unix_bind:u->path=dentry")
	unixSiteBindWmb  = site(unixBase+4, "unix_bind:smp_wmb")
	unixSiteAddrPub  = site(unixBase+5, "unix_bind:u->addr=addr")
	unixSiteGnAddr   = site(unixBase+6, "unix_getname:u->addr")
	unixSiteGnRmb    = site(unixBase+7, "unix_getname:smp_rmb")
	unixSiteGnPath   = site(unixBase+8, "unix_getname:u->path")
	unixSiteGnInode  = site(unixBase+9, "unix_getname:dentry->inode")
	unixSiteGnLen    = site(unixBase+10, "unix_getname:addr->len")
)

type unixInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "unixsock",
		Defs: []*syzlang.SyscallDef{
			{Name: "unix_socket", Module: "unixsock", Ret: "sock_unix"},
			{Name: "unix_bind", Module: "unixsock",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_unix"}, syzlang.IntRange{Min: 1, Max: 108}}},
			{Name: "unix_getname", Module: "unixsock",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_unix"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T4#9", Switch: "unix:addr_rmb", Module: "unixsock",
				Subsystem: "unix", KernelVersion: "5.0-rc7",
				Title: "BUG: unable to handle kernel NULL pointer dereference in unix_getname",
				Type:  "L-L", Table: 4, OFencePattern: true, Repro: "yes",
			},
		},
		Seeds: []string{
			"r0 = unix_socket()\nunix_bind(r0, 0x10)\nunix_getname(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &unixInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// unixCalls is the module's call table, in Defs order.
var unixCalls = [...]func(*unixInstance, *kernel.Task, []uint64) uint64{
	(*unixInstance).socket,  // unix_socket
	(*unixInstance).bind,    // unix_bind
	(*unixInstance).getname, // unix_getname
}

// Call implements Instance.
func (in *unixInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return unixCalls[nr](in, t, args)
}

func (in *unixInstance) socket(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(2))
}

// bind publishes the address with correct write ordering.
func (in *unixInstance) bind(t *kernel.Task, args []uint64) uint64 {
	u, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	n := args[1]
	if n == 0 || n > 108 {
		return EINVAL
	}
	defer t.Enter("unix_bind")()
	addr := t.Kzalloc(2)
	dentry := t.Kzalloc(1)
	t.Store(unixSiteAddrLen, kernel.Field(addr, 0), n)
	t.Store(unixSiteAddrName, kernel.Field(addr, 1), 0x2f746d70) // "/tmp"
	t.Store(unixSitePath, kernel.Field(u, 1), uint64(dentry))
	t.Wmb(unixSiteBindWmb) // correct publisher barrier, always present
	t.Store(unixSiteAddrPub, kernel.Field(u, 0), uint64(addr))
	return EOK
}

// getname is the buggy reader: addr and path loads lack read ordering.
func (in *unixInstance) getname(t *kernel.Task, args []uint64) uint64 {
	u, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("unix_getname")()
	addr := t.Load(unixSiteGnAddr, kernel.Field(u, 0))
	if addr == 0 {
		return EAGAIN // not bound
	}
	if !in.bugs.Has("unix:addr_rmb") {
		t.Rmb(unixSiteGnRmb)
	}
	dentry := t.Load(unixSiteGnPath, kernel.Field(u, 1))
	inode := t.Load(unixSiteGnInode, kernel.Field(trace.Addr(dentry), 0))
	_ = inode
	return t.Load(unixSiteGnLen, kernel.Field(trace.Addr(addr), 0))
}
