package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// vlan reproduces Table 4 bug #1 [Zhu 2021, c1102e9d49eb] "net: fix a data
// race when get vlan device" (5.12-rc7): registering a VLAN initializes the
// per-VID device entry and publishes the group array; vlan_find_dev() walks
// the published array and calls through the device's ops. The missing
// smp_wmb() before the publication chain ("vlan:group_wmb") lets a reader
// observe the array entry before the device's ops pointer committed.
//
// Object layout:
//
//	dev:  [0]=vlan_group
//	vg:   [0..7]=vlan devices by VID
//	vdev: [0]=ops [1]=vid
const vlanVIDs = 8

var (
	vlanSiteOps   = site(vlanBase+1, "register_vlan_dev:vdev->ops=ops")
	vlanSiteVid   = site(vlanBase+2, "register_vlan_dev:vdev->vid=vid")
	vlanSiteEntry = site(vlanBase+3, "register_vlan_dev:vg[vid]=vdev")
	vlanSiteWmb   = site(vlanBase+4, "register_vlan_dev:smp_wmb")
	vlanSitePub   = site(vlanBase+5, "register_vlan_dev:WRITE_ONCE(dev->vlan_group,vg)")
	vlanSiteGrp   = site(vlanBase+6, "vlan_find_dev:READ_ONCE(dev->vlan_group)")
	vlanSiteSlot  = site(vlanBase+7, "vlan_find_dev:vg[vid]")
	vlanSiteFnLd  = site(vlanBase+8, "vlan_find_dev:vdev->ops")
	vlanSiteCall  = site(vlanBase+9, "vlan_find_dev:call ops")
)

type vlanInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
	ops  uint64
}

func init() {
	register(&ModuleInfo{
		Name: "vlan",
		Defs: []*syzlang.SyscallDef{
			{Name: "vlan_netdev", Module: "vlan", Ret: "net_dev"},
			{Name: "vlan_register", Module: "vlan",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "net_dev"}, syzlang.IntRange{Min: 0, Max: vlanVIDs - 1}}},
			{Name: "vlan_find_dev", Module: "vlan",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "net_dev"}, syzlang.IntRange{Min: 0, Max: vlanVIDs - 1}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T4#1", Switch: "vlan:group_wmb", Module: "vlan",
				Subsystem: "vlan", KernelVersion: "5.12-rc7",
				Title: "BUG: unable to handle kernel NULL pointer dereference in vlan_find_dev",
				Type:  "S-S", Table: 4, OFencePattern: false, Repro: "yes",
			},
		},
		Seeds: []string{
			"r0 = vlan_netdev()\nvlan_register(r0, 0x2)\nvlan_find_dev(r0, 0x2)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &vlanInstance{k: k, bugs: bugs}
			in.ops = k.RegisterFn("vlan_dev_ops", func(t *kernel.Task, arg uint64) uint64 { return EOK })
			return in
		},
	})
}

// vlanCalls is the module's call table, in Defs order.
var vlanCalls = [...]func(*vlanInstance, *kernel.Task, []uint64) uint64{
	(*vlanInstance).netdev,   // vlan_netdev
	(*vlanInstance).register, // vlan_register
	(*vlanInstance).findDev,  // vlan_find_dev
}

// Call implements Instance.
func (in *vlanInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return vlanCalls[nr](in, t, args)
}

func (in *vlanInstance) netdev(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(1))
}

func (in *vlanInstance) register(t *kernel.Task, args []uint64) uint64 {
	dev, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	vid := args[1]
	if vid >= vlanVIDs {
		return EINVAL
	}
	defer t.Enter("register_vlan_dev")()
	vg := t.Kzalloc(vlanVIDs)
	vdev := t.Kzalloc(2)
	t.Store(vlanSiteOps, kernel.Field(vdev, 0), in.ops)
	t.Store(vlanSiteVid, kernel.Field(vdev, 1), vid)
	t.Store(vlanSiteEntry, kernel.Field(vg, int(vid)), uint64(vdev))
	if !in.bugs.Has("vlan:group_wmb") {
		t.Wmb(vlanSiteWmb)
	}
	t.WriteOnce(vlanSitePub, kernel.Field(dev, 0), uint64(vg))
	return EOK
}

func (in *vlanInstance) findDev(t *kernel.Task, args []uint64) uint64 {
	dev, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	vid := args[1]
	if vid >= vlanVIDs {
		return EINVAL
	}
	defer t.Enter("vlan_find_dev")()
	vg := t.ReadOnce(vlanSiteGrp, kernel.Field(dev, 0))
	if vg == 0 {
		return EAGAIN
	}
	vdev := t.Load(vlanSiteSlot, kernel.Field(trace.Addr(vg), int(vid)))
	if vdev == 0 {
		return EAGAIN
	}
	fn := t.Load(vlanSiteFnLd, kernel.Field(trace.Addr(vdev), 0))
	return t.CallFn(vlanSiteCall, fn, vid)
}
