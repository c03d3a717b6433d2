package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// nbd reproduces Table 4 bug #7 [Nan 2023, c2da049f4194] "nbd: fix
// null-ptr-dereference while accessing 'nbd->config'" (6.7-rc1): the
// connect path stores nbd->config and then bumps nbd->config_refs with
// correct ordering, but nbd_open() checked the refcount and then loaded
// nbd->config with plain loads — load-load reordering pairs a non-zero
// refcount with a stale NULL config. The switch "nbd:config_rmb" removes
// the reader's ordering.
//
// Object layout:
//
//	nbd:    [0]=config_refs [1]=config
//	config: [0]=socks [1]=blksize
var (
	nbdSiteCfgStore = site(nbdBase+1, "nbd_genl_connect:nbd->config=cfg")
	nbdSiteCfgSocks = site(nbdBase+2, "nbd_genl_connect:cfg->socks=s")
	nbdSiteRefsInc  = site(nbdBase+3, "nbd_genl_connect:refcount_inc(config_refs)")
	nbdSiteConnWmb  = site(nbdBase+8, "nbd_genl_connect:smp_wmb")
	nbdSiteOpenRefs = site(nbdBase+4, "nbd_open:nbd->config_refs")
	nbdSiteOpenRmb  = site(nbdBase+5, "nbd_open:smp_rmb")
	nbdSiteOpenCfg  = site(nbdBase+6, "nbd_open:nbd->config")
	nbdSiteOpenSock = site(nbdBase+7, "nbd_open:config->socks")
)

type nbdInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "nbd",
		Defs: []*syzlang.SyscallDef{
			{Name: "nbd_device", Module: "nbd", Ret: "nbd_dev"},
			{Name: "nbd_genl_connect", Module: "nbd",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "nbd_dev"}}},
			{Name: "nbd_open", Module: "nbd",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "nbd_dev"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T4#7", Switch: "nbd:config_rmb", Module: "nbd",
				Subsystem: "nbd", KernelVersion: "6.7-rc1",
				Title: "BUG: unable to handle kernel NULL pointer dereference in nbd_open",
				Type:  "L-L", Table: 4, OFencePattern: true, Repro: "yes",
			},
		},
		Seeds: []string{
			"r0 = nbd_device()\nnbd_genl_connect(r0)\nnbd_open(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &nbdInstance{bugs: bugs}
			return in
		},
	})
}

// nbdCalls is the module's call table, in Defs order.
var nbdCalls = [...]func(*nbdInstance, *kernel.Task, []uint64) uint64{
	(*nbdInstance).device,  // nbd_device
	(*nbdInstance).connect, // nbd_genl_connect
	(*nbdInstance).open,    // nbd_open
}

// Call implements Instance.
func (in *nbdInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return nbdCalls[nr](in, t, args)
}

func (in *nbdInstance) device(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(2))
}

// connect installs the config with correct write ordering: the refcount
// bump is a fully-ordered RMW.
func (in *nbdInstance) connect(t *kernel.Task, args []uint64) uint64 {
	nbd, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("nbd_genl_connect")()
	cfg := t.Kzalloc(2)
	socks := t.Kzalloc(2)
	t.Store(nbdSiteCfgSocks, kernel.Field(cfg, 0), uint64(socks))
	t.Store(nbdSiteCfgStore, kernel.Field(nbd, 1), uint64(cfg))
	t.Wmb(nbdSiteConnWmb)
	t.AtomicIncReturn(nbdSiteRefsInc, kernel.Field(nbd, 0))
	return EOK
}

// open is the buggy reader: refcount and config loads lack read ordering.
func (in *nbdInstance) open(t *kernel.Task, args []uint64) uint64 {
	nbd, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("nbd_open")()
	refs := t.Load(nbdSiteOpenRefs, kernel.Field(nbd, 0))
	if refs == 0 {
		return EAGAIN
	}
	if !in.bugs.Has("nbd:config_rmb") {
		t.Rmb(nbdSiteOpenRmb)
	}
	cfg := t.Load(nbdSiteOpenCfg, kernel.Field(nbd, 1))
	return t.Load(nbdSiteOpenSock, kernel.Field(trace.Addr(cfg), 0))
}
