package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// gsm reproduces Table 3 bug #11: "BUG: unable to handle kernel NULL
// pointer dereference in gsm_dlci_config" (n_gsm TTY line discipline).
// Activating a DLCI stores the channel object into gsm->dlci[i] and then
// advances gsm->dlci_count with correct write ordering; gsm_dlci_config()
// reads the count and then the channel slot WITHOUT read ordering
// ("gsm:dlci_config_rmb") — load-load reordering lets it observe the new
// count with a stale NULL slot.
//
// Object layout:
//
//	gsm:  [0]=dlci_count [1..4]=dlci[0..3]
//	dlci: [0]=state [1]=mtu
const gsmMaxDLCI = 4

var (
	gsmSiteDlciState = site(gsmBase+1, "gsm_activate:dlci->state=OPEN")
	gsmSiteDlciMtu   = site(gsmBase+2, "gsm_activate:dlci->mtu=mtu")
	gsmSiteSlot      = site(gsmBase+3, "gsm_activate:gsm->dlci[i]=dlci")
	gsmSiteActWmb    = site(gsmBase+4, "gsm_activate:smp_wmb")
	gsmSiteCount     = site(gsmBase+5, "gsm_activate:gsm->dlci_count=i+1")
	gsmSiteCfgCount  = site(gsmBase+6, "gsm_dlci_config:gsm->dlci_count")
	gsmSiteCfgRmb    = site(gsmBase+7, "gsm_dlci_config:smp_rmb")
	gsmSiteCfgSlot   = site(gsmBase+8, "gsm_dlci_config:gsm->dlci[i]")
	gsmSiteCfgState  = site(gsmBase+9, "gsm_dlci_config:dlci->state")
	gsmSiteCfgMtu    = site(gsmBase+10, "gsm_dlci_config:dlci->mtu=v")
)

type gsmInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "gsm",
		Defs: []*syzlang.SyscallDef{
			{Name: "gsm_open", Module: "gsm", Ret: "gsm_mux"},
			{Name: "gsm_activate", Module: "gsm",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "gsm_mux"}, syzlang.IntRange{Min: 0, Max: gsmMaxDLCI - 1}}},
			{Name: "gsm_dlci_config", Module: "gsm",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "gsm_mux"}, syzlang.IntRange{Min: 0, Max: gsmMaxDLCI - 1}, syzlang.IntRange{Min: 64, Max: 1500}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#11", Switch: "gsm:dlci_config_rmb", Module: "gsm",
				Subsystem: "GSM", KernelVersion: "v6.8",
				Title: "BUG: unable to handle kernel NULL pointer dereference in gsm_dlci_config",
				Type:  "L-L", Status: "Confirmed", Table: 3, OFencePattern: true,
			},
		},
		Seeds: []string{
			"r0 = gsm_open()\ngsm_activate(r0, 0x0)\ngsm_dlci_config(r0, 0x0, 0x200)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &gsmInstance{bugs: bugs}
			return in
		},
	})
}

// gsmCalls is the module's call table, in Defs order.
var gsmCalls = [...]func(*gsmInstance, *kernel.Task, []uint64) uint64{
	(*gsmInstance).open,     // gsm_open
	(*gsmInstance).activate, // gsm_activate
	(*gsmInstance).config,   // gsm_dlci_config
}

// Call implements Instance.
func (in *gsmInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return gsmCalls[nr](in, t, args)
}

func (in *gsmInstance) open(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(1 + gsmMaxDLCI))
}

// activate publishes a DLCI with correct write ordering (the bug is in the
// reader).
func (in *gsmInstance) activate(t *kernel.Task, args []uint64) uint64 {
	gsm, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	i := args[1]
	if i >= gsmMaxDLCI {
		return EINVAL
	}
	defer t.Enter("gsm_activate")()
	dlci := t.Kzalloc(2)
	t.Store(gsmSiteDlciState, kernel.Field(dlci, 0), 1)
	t.Store(gsmSiteDlciMtu, kernel.Field(dlci, 1), 64)
	t.Store(gsmSiteSlot, kernel.Field(gsm, 1+int(i)), uint64(dlci))
	t.Wmb(gsmSiteActWmb) // correct publisher barrier, always present
	t.Store(gsmSiteCount, kernel.Field(gsm, 0), i+1)
	return EOK
}

// config is the buggy reader: count load and slot load lack read ordering.
func (in *gsmInstance) config(t *kernel.Task, args []uint64) uint64 {
	gsm, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	i, mtu := args[1], args[2]
	if i >= gsmMaxDLCI {
		return EINVAL
	}
	defer t.Enter("gsm_dlci_config")()
	count := t.Load(gsmSiteCfgCount, kernel.Field(gsm, 0))
	if i >= count {
		return EINVAL
	}
	if !in.bugs.Has("gsm:dlci_config_rmb") {
		t.Rmb(gsmSiteCfgRmb)
	}
	dlci := t.Load(gsmSiteCfgSlot, kernel.Field(gsm, 1+int(i)))
	state := t.Load(gsmSiteCfgState, kernel.Field(trace.Addr(dlci), 0))
	if state != 1 {
		return EBUSY
	}
	t.Store(gsmSiteCfgMtu, kernel.Field(trace.Addr(dlci), 1), mtu)
	return EOK
}
