package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// tls reproduces three bugs of the kernel TLS subsystem (net/tls):
//
//   - T3#9 — the Fig. 7 bug: tls_init() initializes the TLS context
//     (sk->data = ctx; ctx->sk_proto = READ_ONCE(sk->sk_prot)) and then
//     publishes the TLS proto-ops by WRITE_ONCE(sk->sk_prot, &tls_prots).
//     Without an smp_wmb() before the publication (switch
//     "tls:sk_prot_wmb"), a concurrent sock_common_setsockopt() can enter
//     tls_setsockopt() and dereference the uninitialized ctx->sk_proto —
//     "BUG: unable to handle kernel NULL pointer dereference in
//     tls_setsockopt". The case study notes developers had previously
//     annotated the accesses with WRITE_ONCE/READ_ONCE, which silences
//     KCSAN but provides no ordering.
//
//   - T3#5 — tls_sw_enable() builds the software RX context and publishes
//     ctx->rx_conf = TLS_SW; tls_getsockopt() reads rx_conf and then
//     ctx->rx_ctx. The missing smp_wmb() is "tls:ctx_rx_wmb" —
//     "BUG: unable to handle kernel NULL pointer dereference in
//     tls_getsockopt".
//
//   - T4#8 — tls_err_abort() records the error detail in ctx->async_err
//     before setting sk->sk_err; tls_get_error() reads sk->sk_err and then
//     ctx->async_err. Missing ordering ("tls:err_abort_wmb") makes
//     tls_get_error return success despite a pending error — a
//     wrong-return-value symptom, not a crash (soft oracle; the paper's
//     Table 4 marks it with a star).
//
// Object layout:
//
//	sock:      [0]=sk_prot [1]=sk_data(ctx) [2]=sk_err
//	proto ops: [0]=setsockopt fn [1]=getsockopt fn
//	tls ctx:   [0]=sk_proto [1]=rx_conf [2]=rx_ctx [3]=async_err
//	rx ctx:    [0]=iv [1]=rec_seq
var (
	tlsSiteCtxData    = site(tlsBase+1, "tls_init:sk->data=ctx")                         // Fig.7 #5
	tlsSiteCtxProto   = site(tlsBase+2, "tls_init:ctx->sk_proto=READ_ONCE(sk_prot)")     // Fig.7 #6-7
	tlsSiteInitWmb    = site(tlsBase+3, "tls_init:smp_wmb")                              // Fig.7 #8
	tlsSitePubProt    = site(tlsBase+4, "tls_init:WRITE_ONCE(sk->sk_prot,&tls_prots)")   // Fig.7 #9
	tlsSiteLoadProt   = site(tlsBase+5, "sock_common_setsockopt:READ_ONCE(sk->sk_prot)") // Fig.7 #20
	tlsSiteProtField  = site(tlsBase+6, "sock_common_setsockopt:prot->setsockopt")
	tlsSiteCallSetopt = site(tlsBase+7, "sock_common_setsockopt:call setsockopt")
	tlsSiteCtxLoad    = site(tlsBase+8, "tls_setsockopt:ctx=sk->data")  // Fig.7 #27
	tlsSiteCtxSkProto = site(tlsBase+9, "tls_setsockopt:ctx->sk_proto") // Fig.7 #28
	tlsSiteSkField    = site(tlsBase+10, "tls_setsockopt:sk_proto->setsockopt")
	tlsSiteCallBase   = site(tlsBase+11, "tls_setsockopt:call base setsockopt")

	tlsSiteGLoadProt  = site(tlsBase+12, "sock_common_getsockopt:READ_ONCE(sk->sk_prot)")
	tlsSiteGProtField = site(tlsBase+13, "sock_common_getsockopt:prot->getsockopt")
	tlsSiteGCall      = site(tlsBase+14, "sock_common_getsockopt:call getsockopt")
	tlsSiteRxIv       = site(tlsBase+15, "tls_sw_enable:rx->iv=iv")
	tlsSiteRxSeq      = site(tlsBase+16, "tls_sw_enable:rx->rec_seq=seq")
	tlsSiteRxCtx      = site(tlsBase+17, "tls_sw_enable:ctx->rx_ctx=rx")
	tlsSiteRxWmb      = site(tlsBase+18, "tls_sw_enable:smp_wmb")
	tlsSiteRxConf     = site(tlsBase+19, "tls_sw_enable:ctx->rx_conf=TLS_SW")
	tlsSiteGRxConf    = site(tlsBase+20, "tls_getsockopt:ctx->rx_conf")
	tlsSiteGRxCtx     = site(tlsBase+21, "tls_getsockopt:ctx->rx_ctx")
	tlsSiteGRxIv      = site(tlsBase+22, "tls_getsockopt:rx->iv")
	tlsSiteGCtx       = site(tlsBase+23, "tls_getsockopt:ctx=sk->data")

	tlsSiteAbortErr     = site(tlsBase+24, "tls_err_abort:ctx->async_err=err")
	tlsSiteAbortWmb     = site(tlsBase+25, "tls_err_abort:smp_wmb")
	tlsSiteAbortSk      = site(tlsBase+26, "tls_err_abort:WRITE_ONCE(sk->sk_err,err)")
	tlsSiteGetErrSk     = site(tlsBase+27, "tls_get_error:READ_ONCE(sk->sk_err)")
	tlsSiteGetErrCtx    = site(tlsBase+28, "tls_get_error:ctx->async_err")
	tlsSiteGetErrCtxPtr = site(tlsBase+29, "tls_get_error:ctx=sk->data")
	tlsSiteCtxProtoSt   = site(tlsBase+30, "tls_init:ctx->sk_proto store")
)

const tlsSW = 2 // TLS_SW rx_conf value

type tlsInstance struct {
	bugs BugSet
	res  resTable

	baseProt uint64 // &base_prots
	tlsProt  uint64 // &tls_prots
}

func init() {
	register(&ModuleInfo{
		Name: "tls",
		Defs: []*syzlang.SyscallDef{
			{Name: "tls_socket", Module: "tls", Ret: "sock_tls"},
			{Name: "tls_init", Module: "tls",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_tls"}}},
			{Name: "sock_setsockopt", Module: "tls",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_tls"}, syzlang.IntRange{Min: 0, Max: 4}}},
			{Name: "sock_getsockopt", Module: "tls",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_tls"}}},
			{Name: "tls_sw_enable", Module: "tls",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_tls"}}},
			{Name: "tls_err_abort", Module: "tls",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_tls"}, syzlang.IntRange{Min: 1, Max: 100}}},
			{Name: "tls_get_error", Module: "tls",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_tls"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#9", Switch: "tls:sk_prot_wmb", Module: "tls",
				Subsystem: "TLS", KernelVersion: "v6.7-rc2",
				Title: "BUG: unable to handle kernel NULL pointer dereference in tls_setsockopt",
				Type:  "S-S", Status: "Fixed", Table: 3, OFencePattern: false,
				Note: "Fig. 7 case study: WRITE_ONCE/READ_ONCE annotation silenced KCSAN but added no ordering",
			},
			{
				ID: "T3#5", Switch: "tls:ctx_rx_wmb", Module: "tls",
				Subsystem: "TLS", KernelVersion: "v6.6-rc2",
				Title: "BUG: unable to handle kernel NULL pointer dereference in tls_getsockopt",
				Type:  "S-S", Status: "Fixed", Table: 3, OFencePattern: false,
			},
			{
				ID: "T4#8", Switch: "tls:err_abort_wmb", Module: "tls",
				Subsystem: "tls", KernelVersion: "6.7-rc1",
				SoftTitle: "tls: tls_get_error returned success despite pending error",
				Type:      "S-S", Table: 4, OFencePattern: false, Repro: "partial",
				Note: "symptom is a wrong syscall return value, not a crash (Table 4 entry #8, checkmark-star)",
			},
		},
		Seeds: []string{
			"r0 = tls_socket()\ntls_init(r0)\nsock_setsockopt(r0, 0x1)\n",
			"r0 = tls_socket()\ntls_init(r0)\ntls_sw_enable(r0)\nsock_getsockopt(r0)\n",
			"r0 = tls_socket()\ntls_init(r0)\ntls_err_abort(r0, 0x8)\ntls_get_error(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &tlsInstance{bugs: bugs}
			in.install(k)
			return in
		},
	})
}

// tlsCalls is the module's call table, in Defs order.
var tlsCalls = [...]func(*tlsInstance, *kernel.Task, []uint64) uint64{
	(*tlsInstance).socket,     // tls_socket
	(*tlsInstance).tlsInit,    // tls_init
	(*tlsInstance).setsockopt, // sock_setsockopt
	(*tlsInstance).getsockopt, // sock_getsockopt
	(*tlsInstance).swEnable,   // tls_sw_enable
	(*tlsInstance).errAbort,   // tls_err_abort
	(*tlsInstance).getError,   // tls_get_error
}

// Call implements Instance.
func (in *tlsInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return tlsCalls[nr](in, t, args)
}

// install builds the two static proto-ops tables and registers the
// functions they point to.
func (in *tlsInstance) install(k *kernel.Kernel) {
	baseSet := k.RegisterFn(func(t *kernel.Task, arg uint64) uint64 { return EOK })
	baseGet := k.RegisterFn(func(t *kernel.Task, arg uint64) uint64 { return EOK })
	tlsSet := k.RegisterFn(tlsSetsockopt)
	tlsGet := k.RegisterFn(tlsGetsockopt)

	bp := k.Mem.AllocZeroed(2)
	k.Mem.Write(kernel.Field(bp, 0), baseSet)
	k.Mem.Write(kernel.Field(bp, 1), baseGet)
	in.baseProt = uint64(bp)

	tp := k.Mem.AllocZeroed(2)
	k.Mem.Write(kernel.Field(tp, 0), tlsSet)
	k.Mem.Write(kernel.Field(tp, 1), tlsGet)
	in.tlsProt = uint64(tp)
}

func (in *tlsInstance) socket(t *kernel.Task, args []uint64) uint64 {
	sk := t.Kzalloc(3)
	t.K.Mem.Write(kernel.Field(sk, 0), in.baseProt) // pre-publication init
	return in.res.add(sk)
}

// tlsInit is Fig. 7's tls_init() (Thread A).
func (in *tlsInstance) tlsInit(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("tls_init")()
	if t.ReadOnce(tlsSiteLoadProt, kernel.Field(sk, 0)) == in.tlsProt {
		return EBUSY // already upgraded to TLS
	}
	ctx := t.Kzalloc(4)                                           // #4: ctx = kzalloc()
	t.WriteOnce(tlsSiteCtxData, kernel.Field(sk, 1), uint64(ctx)) // #5: sk->data = ctx (rcu_assign-style annotated)
	prot := t.ReadOnce(tlsSiteCtxProto, kernel.Field(sk, 0))      // #6-7: READ_ONCE(sk->sk_prot)
	t.Store(tlsSiteCtxProtoSt, kernel.Field(ctx, 0), prot)        // ctx->sk_proto = ...
	if !in.bugs.Has("tls:sk_prot_wmb") {
		t.Wmb(tlsSiteInitWmb) // #8: smp_wmb() — the missing barrier
	}
	t.WriteOnce(tlsSitePubProt, kernel.Field(sk, 0), in.tlsProt) // #9-10
	return EOK
}

// setsockopt is Fig. 7's sock_common_setsockopt() (Thread B).
func (in *tlsInstance) setsockopt(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("sock_common_setsockopt")()
	prot := t.ReadOnce(tlsSiteLoadProt, kernel.Field(sk, 0)) // #20: READ_ONCE(sk->sk_prot)
	fn := t.Load(tlsSiteProtField, kernel.Field(trace.Addr(prot), 0))
	return t.CallFn(tlsSiteCallSetopt, fn, uint64(sk)) // ->setsockopt(sk)
}

// tlsSetsockopt is Fig. 7's tls_setsockopt() (reached via the tls proto
// table).
func tlsSetsockopt(t *kernel.Task, skArg uint64) uint64 {
	sk := trace.Addr(skArg)
	defer t.Enter("tls_setsockopt")()
	ctx := t.ReadOnce(tlsSiteCtxLoad, kernel.Field(sk, 1))               // #27: ctx = sk->data (rcu_dereference-style annotated)
	proto := t.Load(tlsSiteCtxSkProto, kernel.Field(trace.Addr(ctx), 0)) // #28: ctx->sk_proto
	fn := t.Load(tlsSiteSkField, kernel.Field(trace.Addr(proto), 0))     // ->setsockopt
	return t.CallFn(tlsSiteCallBase, fn, skArg)
}

func (in *tlsInstance) getsockopt(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("sock_common_getsockopt")()
	prot := t.ReadOnce(tlsSiteGLoadProt, kernel.Field(sk, 0))
	fn := t.Load(tlsSiteGProtField, kernel.Field(trace.Addr(prot), 1))
	return t.CallFn(tlsSiteGCall, fn, uint64(sk))
}

// tlsGetsockopt reads the software RX configuration (T3#5 reader).
func tlsGetsockopt(t *kernel.Task, skArg uint64) uint64 {
	sk := trace.Addr(skArg)
	defer t.Enter("tls_getsockopt")()
	ctx := trace.Addr(t.ReadOnce(tlsSiteGCtx, kernel.Field(sk, 1)))
	if ctx == 0 {
		return EINVAL
	}
	conf := t.ReadOnce(tlsSiteGRxConf, kernel.Field(ctx, 1))
	if conf != tlsSW {
		return EOK
	}
	rx := t.Load(tlsSiteGRxCtx, kernel.Field(ctx, 2))
	return t.Load(tlsSiteGRxIv, kernel.Field(trace.Addr(rx), 0))
}

// swEnable is the T3#5 publisher: setsockopt(SOL_TLS, TLS_RX).
func (in *tlsInstance) swEnable(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("tls_sw_enable")()
	ctx := trace.Addr(t.ReadOnce(tlsSiteGCtx, kernel.Field(sk, 1)))
	if ctx == 0 {
		return EINVAL // needs tls_init first
	}
	rx := t.Kzalloc(2)
	t.Store(tlsSiteRxIv, kernel.Field(rx, 0), 0x69766976)   // rx->iv
	t.Store(tlsSiteRxSeq, kernel.Field(rx, 1), 1)           // rx->rec_seq
	t.Store(tlsSiteRxCtx, kernel.Field(ctx, 2), uint64(rx)) // ctx->rx_ctx = rx
	if !in.bugs.Has("tls:ctx_rx_wmb") {
		t.Wmb(tlsSiteRxWmb)
	}
	t.WriteOnce(tlsSiteRxConf, kernel.Field(ctx, 1), tlsSW) // publish
	return EOK
}

// errAbort is the T4#8 writer: tls_err_abort().
func (in *tlsInstance) errAbort(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	err := args[1]
	if err == 0 {
		return EINVAL
	}
	defer t.Enter("tls_err_abort")()
	ctx := trace.Addr(t.ReadOnce(tlsSiteGCtx, kernel.Field(sk, 1)))
	if ctx == 0 {
		return EINVAL
	}
	t.Store(tlsSiteAbortErr, kernel.Field(ctx, 3), err) // ctx->async_err = err
	if !in.bugs.Has("tls:err_abort_wmb") {
		t.Wmb(tlsSiteAbortWmb)
	}
	t.WriteOnce(tlsSiteAbortSk, kernel.Field(sk, 2), err) // sk->sk_err = err
	return EOK
}

// getError is the T4#8 reader: tls_get_error(). The wrong-return-value
// symptom is detected by the semantic oracle: sk->sk_err set but the
// context's error detail still unset.
func (in *tlsInstance) getError(t *kernel.Task, args []uint64) uint64 {
	sk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("tls_get_error")()
	skErr := t.ReadOnce(tlsSiteGetErrSk, kernel.Field(sk, 2))
	if skErr == 0 {
		return EOK
	}
	ctx := trace.Addr(t.ReadOnce(tlsSiteGetErrCtxPtr, kernel.Field(sk, 1)))
	if ctx == 0 {
		return EINVAL
	}
	detail := t.Load(tlsSiteGetErrCtx, kernel.Field(ctx, 3))
	if detail == 0 {
		// sk_err is visible but the error detail is not: the caller
		// would observe success for a failed operation.
		t.SoftReport("tls: tls_get_error returned success despite pending error")
		return EOK
	}
	return detail
}
