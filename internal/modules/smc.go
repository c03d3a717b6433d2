package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// smc reproduces two SMC-socket bugs of Table 3:
//
//   - T3#8 (S-S) — "BUG: unable to handle kernel NULL pointer dereference
//     in connect": smc_listen() publishes the listening state before the
//     internal CLC socket pointer commits ("smc:clcsock_wmb"); a concurrent
//     connect() dereferences the NULL clcsock.
//
//   - T3#10 (L-L) — "KASAN: null-ptr-deref Write in fput": smc_accept()
//     installs the accepted socket's file and then sets the accepted flag
//     with proper write ordering, but smc_close() reads the flag and the
//     file pointer without read ordering ("smc:fdinstall_rmb"); the close
//     path can observe the flag yet a stale NULL file, and fput()'s
//     reference drop writes through the NULL pointer (a Write fault — the
//     KASAN flavour of this bug).
//
// Object layout:
//
//	smc:  [0]=clcsock [1]=state [2]=file [3]=accepted
//	clc:  [0]=token
//	file: [0]=f_count [1]=f_mode
const smcListen = 1

var (
	smcSiteClcTok   = site(smcBase+1, "smc_listen:clc->token=tok")
	smcSiteClcPub   = site(smcBase+2, "smc_listen:smc->clcsock=clc")
	smcSiteWmb      = site(smcBase+3, "smc_listen:smp_wmb")
	smcSiteStatePub = site(smcBase+4, "smc_listen:WRITE_ONCE(smc->state,LISTEN)")
	smcSiteConnSt   = site(smcBase+5, "connect:READ_ONCE(smc->state)")
	smcSiteConnClc  = site(smcBase+6, "connect:smc->clcsock")
	smcSiteConnTok  = site(smcBase+7, "connect:clcsock->token")

	smcSiteFileCnt  = site(smcBase+8, "smc_accept:file->f_count=1")
	smcSiteFileMode = site(smcBase+9, "smc_accept:file->f_mode=RW")
	smcSiteFilePub  = site(smcBase+10, "smc_accept:smc->file=file")
	smcSiteAccWmb   = site(smcBase+11, "smc_accept:smp_wmb")
	smcSiteAccFlag  = site(smcBase+12, "smc_accept:smc->accepted=1")
	smcSiteCloseAcc = site(smcBase+13, "smc_close:smc->accepted")
	smcSiteCloseRmb = site(smcBase+14, "smc_close:smp_rmb")
	smcSiteCloseF   = site(smcBase+15, "smc_close:smc->file")
	smcSiteFputW    = site(smcBase+16, "fput:file->f_count=0")
)

type smcInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "smc",
		Defs: []*syzlang.SyscallDef{
			{Name: "smc_socket", Module: "smc", Ret: "sock_smc"},
			{Name: "smc_listen", Module: "smc",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_smc"}}},
			{Name: "smc_connect", Module: "smc",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_smc"}}},
			{Name: "smc_accept", Module: "smc",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_smc"}}},
			{Name: "smc_close", Module: "smc",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_smc"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#8", Switch: "smc:clcsock_wmb", Module: "smc",
				Subsystem: "SMC", KernelVersion: "v6.7-rc8",
				Title: "BUG: unable to handle kernel NULL pointer dereference in connect",
				Type:  "S-S", Status: "Confirmed", Table: 3, OFencePattern: false,
			},
			{
				ID: "T3#10", Switch: "smc:fdinstall_rmb", Module: "smc",
				Subsystem: "SMC", KernelVersion: "v6.8-rc1",
				Title: "KASAN: null-ptr-deref Write in fput",
				Type:  "L-L", Status: "Confirmed", Table: 3, OFencePattern: true,
			},
		},
		Seeds: []string{
			"r0 = smc_socket()\nsmc_listen(r0)\nsmc_connect(r0)\n",
			"r0 = smc_socket()\nsmc_accept(r0)\nsmc_close(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &smcInstance{bugs: bugs}
			return in
		},
	})
}

// smcCalls is the module's call table, in Defs order.
var smcCalls = [...]func(*smcInstance, *kernel.Task, []uint64) uint64{
	(*smcInstance).socket,  // smc_socket
	(*smcInstance).listen,  // smc_listen
	(*smcInstance).connect, // smc_connect
	(*smcInstance).accept,  // smc_accept
	(*smcInstance).close,   // smc_close
}

// Call implements Instance.
func (in *smcInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return smcCalls[nr](in, t, args)
}

func (in *smcInstance) socket(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(4))
}

// listen is the T3#8 publisher.
func (in *smcInstance) listen(t *kernel.Task, args []uint64) uint64 {
	smc, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("smc_listen")()
	clc := t.Kzalloc(1)
	t.Store(smcSiteClcTok, kernel.Field(clc, 0), 0x5afe)
	t.Store(smcSiteClcPub, kernel.Field(smc, 0), uint64(clc))
	if !in.bugs.Has("smc:clcsock_wmb") {
		t.Wmb(smcSiteWmb)
	}
	t.WriteOnce(smcSiteStatePub, kernel.Field(smc, 1), smcListen)
	return EOK
}

// connect is the T3#8 observer (the crash report names the syscall entry,
// "connect", as the paper's Table 3 does).
func (in *smcInstance) connect(t *kernel.Task, args []uint64) uint64 {
	smc, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("connect")()
	if t.ReadOnce(smcSiteConnSt, kernel.Field(smc, 1)) != smcListen {
		return EAGAIN
	}
	clc := t.Load(smcSiteConnClc, kernel.Field(smc, 0))
	return t.Load(smcSiteConnTok, kernel.Field(trace.Addr(clc), 0))
}

// accept is the T3#10 publisher: write-side ordering is CORRECT here (the
// bug is in the reader).
func (in *smcInstance) accept(t *kernel.Task, args []uint64) uint64 {
	smc, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("smc_accept")()
	file := t.Kzalloc(2)
	t.Store(smcSiteFileCnt, kernel.Field(file, 0), 1)
	t.Store(smcSiteFileMode, kernel.Field(file, 1), 3)
	t.Store(smcSiteFilePub, kernel.Field(smc, 2), uint64(file))
	t.Wmb(smcSiteAccWmb) // correct publisher barrier, always present
	t.WriteOnce(smcSiteAccFlag, kernel.Field(smc, 3), 1)
	return EOK
}

// close is the T3#10 reader: the missing smp_rmb() between the accepted
// flag and the file pointer loads is the bug (load-load reordering).
func (in *smcInstance) close(t *kernel.Task, args []uint64) uint64 {
	smc, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("smc_close")()
	acc := t.Load(smcSiteCloseAcc, kernel.Field(smc, 3))
	if acc == 0 {
		return EOK
	}
	if !in.bugs.Has("smc:fdinstall_rmb") {
		t.Rmb(smcSiteCloseRmb)
	}
	file := t.Load(smcSiteCloseF, kernel.Field(smc, 2))
	// fput(): drop the reference — a WRITE through the file pointer.
	defer t.Enter("fput")()
	t.Store(smcSiteFputW, kernel.Field(trace.Addr(file), 0), 0)
	return EOK
}
