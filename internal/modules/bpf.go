package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// bpf reproduces Table 3 bug #6: "BUG: unable to handle kernel NULL pointer
// dereference in sk_psock_verdict_data_ready" (BPF sockmap). Installing a
// psock saves the socket's original data_ready callback in
// psock->saved_data_ready and publishes the psock on the socket; the
// data-ready path loads the psock and calls the saved callback. The missing
// smp_wmb() between the callback save and the publication is
// "bpf:psock_wmb".
//
// Object layout:
//
//	sk:    [0]=psock [1]=data_avail
//	psock: [0]=saved_data_ready [1]=ops
var (
	bpfSiteSaved   = site(bpfBase+1, "sk_psock_init:psock->saved_data_ready=fn")
	bpfSiteOps     = site(bpfBase+2, "sk_psock_init:psock->ops=verdict_ops")
	bpfSiteWmb     = site(bpfBase+3, "sk_psock_init:smp_wmb")
	bpfSitePub     = site(bpfBase+4, "sk_psock_init:WRITE_ONCE(sk->psock,psock)")
	bpfSiteLoadP   = site(bpfBase+5, "sk_data_ready:READ_ONCE(sk->psock)")
	bpfSiteLoadFn  = site(bpfBase+6, "sk_psock_verdict_data_ready:psock->saved_data_ready")
	bpfSiteCall    = site(bpfBase+7, "sk_psock_verdict_data_ready:call saved_data_ready")
	bpfSiteDataSet = site(bpfBase+8, "bpf_inject_data:sk->data_avail=1")
)

type bpfInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
	orig uint64 // the original data_ready callback value
}

func init() {
	register(&ModuleInfo{
		Name: "bpf",
		Defs: []*syzlang.SyscallDef{
			{Name: "bpf_sockmap_create", Module: "bpf", Ret: "sock_bpf"},
			{Name: "bpf_psock_init", Module: "bpf",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_bpf"}}},
			{Name: "bpf_data_ready", Module: "bpf",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_bpf"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#6", Switch: "bpf:psock_wmb", Module: "bpf",
				Subsystem: "BPF", KernelVersion: "v6.7-rc8",
				Title: "BUG: unable to handle kernel NULL pointer dereference in sk_psock_verdict_data_ready",
				Type:  "S-S", Status: "Fixed", Table: 3, OFencePattern: false,
			},
		},
		Seeds: []string{
			"r0 = bpf_sockmap_create()\nbpf_psock_init(r0)\nbpf_data_ready(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &bpfInstance{k: k, bugs: bugs}
			in.orig = k.RegisterFn("tcp_data_ready", func(t *kernel.Task, arg uint64) uint64 { return EOK })
			return in
		},
	})
}

// bpfCalls is the module's call table, in Defs order.
var bpfCalls = [...]func(*bpfInstance, *kernel.Task, []uint64) uint64{
	(*bpfInstance).create,    // bpf_sockmap_create
	(*bpfInstance).psockInit, // bpf_psock_init
	(*bpfInstance).dataReady, // bpf_data_ready
}

// Call implements Instance.
func (in *bpfInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return bpfCalls[nr](in, t, args)
}

func (in *bpfInstance) create(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(2))
}

func (in *bpfInstance) psockInit(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("sk_psock_init")()
	psock := t.Kzalloc(2)
	t.Store(bpfSiteSaved, kernel.Field(psock, 0), in.orig)
	t.Store(bpfSiteOps, kernel.Field(psock, 1), 1)
	if !in.bugs.Has("bpf:psock_wmb") {
		t.Wmb(bpfSiteWmb)
	}
	t.WriteOnce(bpfSitePub, kernel.Field(sk, 0), uint64(psock))
	return EOK
}

func (in *bpfInstance) dataReady(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("sk_data_ready")()
	t.Store(bpfSiteDataSet, kernel.Field(sk, 1), 1)
	psock := t.ReadOnce(bpfSiteLoadP, kernel.Field(sk, 0))
	if psock == 0 {
		return EOK
	}
	defer t.Enter("sk_psock_verdict_data_ready")()
	fn := t.Load(bpfSiteLoadFn, kernel.Field(trace.Addr(psock), 0))
	return t.CallFn(bpfSiteCall, fn, uint64(sk))
}
