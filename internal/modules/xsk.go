package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// xsk reproduces four bugs of the XDP socket subsystem (net/xdp) — the
// paper's most-hit module (two new bugs, two known bugs):
//
//   - T4#3 [Töpel 2018, 37b076933a8e] "xsk: add missing write- and
//     data-dependency barrier": xsk_umem_reg publishes xs->umem before the
//     umem's frame array pointer is visible ("xsk:umem_wmb").
//   - T4#4 [Töpel 2019, 42fddcc7c64b] "xsk: use state member for socket
//     synchronization": xsk_bind publishes XSK_BOUND before the RX queue
//     is initialized ("xsk:state_wmb").
//   - T3#4 — "BUG: ... NULL pointer dereference in xsk_poll": the buffer
//     pool is published before its fill queue pointer commits
//     ("xsk:pool_publish_wmb").
//   - T3#7 — "BUG: ... NULL pointer dereference in xsk_generic_xmit": the
//     TX queue is published before its ring pointer commits
//     ("xsk:xmit_queue_wmb").
//
// Object layout:
//
//	xs:    [0]=state [1]=umem [2]=rx_queue [3]=tx_queue [4]=pool
//	umem:  [0]=chunk_size [1]=frames
//	queue: [0]=ring [1]=nentries
//	pool:  [0]=fq
const xskBound = 1

var (
	xskSiteUmemSize  = site(xskBase+1, "xsk_umem_reg:umem->chunk_size=sz")
	xskSiteUmemFr    = site(xskBase+2, "xsk_umem_reg:umem->frames=fr")
	xskSiteUmemWmb   = site(xskBase+3, "xsk_umem_reg:smp_wmb")
	xskSiteUmemPub   = site(xskBase+4, "xsk_umem_reg:WRITE_ONCE(xs->umem,umem)")
	xskSiteBindUmem  = site(xskBase+5, "xsk_bind:READ_ONCE(xs->umem)")
	xskSiteBindFr    = site(xskBase+6, "xsk_bind:umem->frames")
	xskSiteBindFr0   = site(xskBase+7, "xsk_bind:frames[0]")
	xskSiteRxRing    = site(xskBase+8, "xsk_bind:rxq->ring=ring")
	xskSiteRxN       = site(xskBase+9, "xsk_bind:rxq->nentries=n")
	xskSiteRxQ       = site(xskBase+10, "xsk_bind:xs->rx_queue=rxq")
	xskSiteBindWmb   = site(xskBase+11, "xsk_bind:smp_wmb")
	xskSiteBindState = site(xskBase+12, "xsk_bind:WRITE_ONCE(xs->state,XSK_BOUND)")
	xskSiteRcvState  = site(xskBase+13, "xsk_recvmsg:READ_ONCE(xs->state)")
	xskSiteRcvQ      = site(xskBase+14, "xsk_recvmsg:xs->rx_queue")
	xskSiteRcvRing   = site(xskBase+15, "xsk_recvmsg:rxq->ring")
	xskSiteRcvRead   = site(xskBase+16, "xsk_recvmsg:ring[0]")
	xskSitePoolFq    = site(xskBase+17, "xsk_setup_pool:pool->fq=fq")
	xskSitePoolWmb   = site(xskBase+18, "xsk_setup_pool:smp_wmb")
	xskSitePoolPub   = site(xskBase+19, "xsk_setup_pool:WRITE_ONCE(xs->pool,pool)")
	xskSitePollPool  = site(xskBase+20, "xsk_poll:READ_ONCE(xs->pool)")
	xskSitePollFq    = site(xskBase+21, "xsk_poll:pool->fq")
	xskSitePollRead  = site(xskBase+22, "xsk_poll:fq[0]")
	xskSiteTxRing    = site(xskBase+23, "xsk_tx_enable:txq->ring=ring")
	xskSiteTxN       = site(xskBase+24, "xsk_tx_enable:txq->nentries=n")
	xskSiteTxWmb     = site(xskBase+25, "xsk_tx_enable:smp_wmb")
	xskSiteTxPub     = site(xskBase+26, "xsk_tx_enable:WRITE_ONCE(xs->tx_queue,txq)")
	xskSiteXmitQ     = site(xskBase+27, "xsk_sendmsg:READ_ONCE(xs->tx_queue)")
	xskSiteXmitRmb   = site(xskBase+31, "xsk_generic_xmit:smp_rmb")
	xskSiteXmitRing  = site(xskBase+28, "xsk_generic_xmit:txq->ring")
	xskSiteXmitRead  = site(xskBase+29, "xsk_generic_xmit:ring[0]")
	xskSiteXmitWrite = site(xskBase+30, "xsk_generic_xmit:ring[0]=desc")
)

type xskInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "xsk",
		Defs: []*syzlang.SyscallDef{
			{Name: "xsk_socket", Module: "xsk", Ret: "sock_xsk"},
			{Name: "xsk_umem_reg", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}, syzlang.IntRange{Min: 1, Max: 4096}}},
			{Name: "xsk_bind", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}}},
			{Name: "xsk_recvmsg", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}}},
			{Name: "xsk_setup_pool", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}}},
			{Name: "xsk_poll", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}}},
			{Name: "xsk_tx_enable", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}}},
			{Name: "xsk_sendmsg", Module: "xsk",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_xsk"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#4", Switch: "xsk:pool_publish_wmb", Module: "xsk",
				Subsystem: "XDP", KernelVersion: "v6.6-rc2",
				Title: "BUG: unable to handle kernel NULL pointer dereference in xsk_poll",
				Type:  "S-S", Status: "Fixed", Table: 3, OFencePattern: false,
			},
			{
				ID: "T3#7", Switch: "xsk:xmit_queue_wmb", Module: "xsk",
				Subsystem: "XDP", KernelVersion: "v6.5-rc7",
				Title: "BUG: unable to handle kernel NULL pointer dereference in xsk_generic_xmit",
				Type:  "S-S", Status: "Fixed", Table: 3, OFencePattern: true,
			},
			{
				ID: "T4#3", Switch: "xsk:umem_wmb", Module: "xsk",
				Subsystem: "xsk", KernelVersion: "4.17-rc4",
				Title: "BUG: unable to handle kernel NULL pointer dereference in xsk_bind",
				Type:  "S-S", Table: 4, OFencePattern: false, Repro: "yes",
			},
			{
				ID: "T4#4", Switch: "xsk:state_wmb", Module: "xsk",
				Subsystem: "xsk", KernelVersion: "5.3-rc3",
				Title: "BUG: unable to handle kernel NULL pointer dereference in xsk_recvmsg",
				Type:  "S-S", Table: 4, OFencePattern: false, Repro: "yes",
			},
		},
		Seeds: []string{
			"r0 = xsk_socket()\nxsk_umem_reg(r0, 0x800)\nxsk_bind(r0)\n",
			"r0 = xsk_socket()\nxsk_umem_reg(r0, 0x800)\nxsk_bind(r0)\nxsk_recvmsg(r0)\n",
			"r0 = xsk_socket()\nxsk_setup_pool(r0)\nxsk_poll(r0)\n",
			"r0 = xsk_socket()\nxsk_tx_enable(r0)\nxsk_sendmsg(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &xskInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// xskCalls is the module's call table, in Defs order.
var xskCalls = [...]func(*xskInstance, *kernel.Task, []uint64) uint64{
	(*xskInstance).socket,    // xsk_socket
	(*xskInstance).umemReg,   // xsk_umem_reg
	(*xskInstance).bind,      // xsk_bind
	(*xskInstance).recvmsg,   // xsk_recvmsg
	(*xskInstance).setupPool, // xsk_setup_pool
	(*xskInstance).poll,      // xsk_poll
	(*xskInstance).txEnable,  // xsk_tx_enable
	(*xskInstance).sendmsg,   // xsk_sendmsg
}

// Call implements Instance.
func (in *xskInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return xskCalls[nr](in, t, args)
}

func (in *xskInstance) socket(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(5))
}

// umemReg is the T4#3 publisher.
func (in *xskInstance) umemReg(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_umem_reg")()
	umem := t.Kzalloc(2)
	frames := t.Kzalloc(4)
	t.Store(xskSiteUmemSize, kernel.Field(umem, 0), args[1])
	t.Store(xskSiteUmemFr, kernel.Field(umem, 1), uint64(frames))
	if !in.bugs.Has("xsk:umem_wmb") {
		t.Wmb(xskSiteUmemWmb)
	}
	t.WriteOnce(xskSiteUmemPub, kernel.Field(xs, 1), uint64(umem))
	return EOK
}

// bind is the T4#3 reader and the T4#4 publisher.
func (in *xskInstance) bind(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_bind")()
	umem := t.ReadOnce(xskSiteBindUmem, kernel.Field(xs, 1))
	if umem == 0 {
		return EINVAL
	}
	fr := t.Load(xskSiteBindFr, kernel.Field(trace.Addr(umem), 1))
	t.Load(xskSiteBindFr0, trace.Addr(fr)) // touch frames[0]: NULL if unpublished

	rxq := t.Kzalloc(2)
	ring := t.Kzalloc(4)
	t.Store(xskSiteRxRing, kernel.Field(rxq, 0), uint64(ring))
	t.Store(xskSiteRxN, kernel.Field(rxq, 1), 4)
	t.Store(xskSiteRxQ, kernel.Field(xs, 2), uint64(rxq))
	if !in.bugs.Has("xsk:state_wmb") {
		t.Wmb(xskSiteBindWmb)
	}
	t.WriteOnce(xskSiteBindState, kernel.Field(xs, 0), xskBound)
	return EOK
}

// recvmsg is the T4#4 reader.
func (in *xskInstance) recvmsg(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_recvmsg")()
	if t.ReadOnce(xskSiteRcvState, kernel.Field(xs, 0)) != xskBound {
		return EAGAIN
	}
	rxq := t.Load(xskSiteRcvQ, kernel.Field(xs, 2))
	ring := t.Load(xskSiteRcvRing, kernel.Field(trace.Addr(rxq), 0))
	return t.Load(xskSiteRcvRead, trace.Addr(ring))
}

// setupPool is the T3#4 publisher.
func (in *xskInstance) setupPool(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_setup_pool")()
	pool := t.Kzalloc(1)
	fq := t.Kzalloc(4)
	t.Store(xskSitePoolFq, kernel.Field(pool, 0), uint64(fq))
	if !in.bugs.Has("xsk:pool_publish_wmb") {
		t.Wmb(xskSitePoolWmb)
	}
	t.WriteOnce(xskSitePoolPub, kernel.Field(xs, 4), uint64(pool))
	return EOK
}

// poll is the T3#4 reader.
func (in *xskInstance) poll(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_poll")()
	pool := t.ReadOnce(xskSitePollPool, kernel.Field(xs, 4))
	if pool == 0 {
		return EOK
	}
	fq := t.Load(xskSitePollFq, kernel.Field(trace.Addr(pool), 0))
	return t.Load(xskSitePollRead, trace.Addr(fq))
}

// txEnable is the T3#7 publisher.
func (in *xskInstance) txEnable(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_tx_enable")()
	txq := t.Kzalloc(2)
	ring := t.Kzalloc(4)
	t.Store(xskSiteTxRing, kernel.Field(txq, 0), uint64(ring))
	t.Store(xskSiteTxN, kernel.Field(txq, 1), 4)
	if !in.bugs.Has("xsk:xmit_queue_wmb") {
		t.Wmb(xskSiteTxWmb)
	}
	t.WriteOnce(xskSiteTxPub, kernel.Field(xs, 3), uint64(txq))
	return EOK
}

// sendmsg is the T3#7 reader: xsk_sendmsg -> xsk_generic_xmit.
func (in *xskInstance) sendmsg(t *kernel.Task, args []uint64) uint64 {
	xs, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("xsk_sendmsg")()
	txq := t.ReadOnce(xskSiteXmitQ, kernel.Field(xs, 3))
	if txq == 0 {
		return EAGAIN
	}
	defer t.Enter("xsk_generic_xmit")()
	// The reader half of the barrier pair is present (the bug removed the
	// writer's smp_wmb, leaving this smp_rmb unpaired — which is exactly
	// what makes T3#7 one of the three bugs OFence's paired-barrier
	// patterns CAN flag, §6.4).
	t.Rmb(xskSiteXmitRmb)
	ring := t.Load(xskSiteXmitRing, kernel.Field(trace.Addr(txq), 0))
	desc := t.Load(xskSiteXmitRead, trace.Addr(ring))
	t.Store(xskSiteXmitWrite, trace.Addr(ring), desc+1)
	return EOK
}
