package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// fdtable reproduces Table 4 bug #5 [Horn 2022, 7ee47dcfff18] "fs: use
// acquire ordering in __fget_light()" (6.1-rc1): fd_install publishes a
// file into the fd table with release ordering, but the lockless fast path
// __fget_light read the table pointer, the fd slot, and the file's fields
// with plain loads — load-load reordering lets it pair a fresh table
// pointer with a stale NULL slot or stale file fields. The switch
// "fdtable:fget_acquire" reverts the reader to plain loads.
//
// Object layout:
//
//	files: [0]=fdt
//	fdt:   [0..3]=fd slots
//	file:  [0]=f_op [1]=f_mode
const fdSlots = 4

var (
	fdSiteFop     = site(fdtableBase+1, "fd_install:file->f_op=ops")
	fdSiteFmode   = site(fdtableBase+2, "fd_install:file->f_mode=mode")
	fdSiteSlotRel = site(fdtableBase+3, "fd_install:smp_store_release(&fdt->fd[fd],file)")
	fdSiteFdt     = site(fdtableBase+4, "__fget_light:files->fdt")
	fdSiteSlot    = site(fdtableBase+5, "__fget_light:fdt->fd[fd]")
	fdSiteOpLd    = site(fdtableBase+6, "__fget_light:file->f_op")
	fdSiteCall    = site(fdtableBase+7, "__fget_light:call f_op")
)

type fdInstance struct {
	bugs BugSet
	res  resTable
	fops uint64
}

func init() {
	register(&ModuleInfo{
		Name: "fdtable",
		Defs: []*syzlang.SyscallDef{
			{Name: "fd_files_create", Module: "fdtable", Ret: "files_struct"},
			{Name: "fd_install", Module: "fdtable",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "files_struct"}, syzlang.IntRange{Min: 0, Max: fdSlots - 1}}},
			{Name: "fd_fget_light", Module: "fdtable",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "files_struct"}, syzlang.IntRange{Min: 0, Max: fdSlots - 1}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T4#5", Switch: "fdtable:fget_acquire", Module: "fdtable",
				Subsystem: "fs", KernelVersion: "6.1-rc1",
				Title: "BUG: unable to handle kernel NULL pointer dereference in __fget_light",
				Type:  "L-L", Table: 4, OFencePattern: true, Repro: "yes",
			},
		},
		Seeds: []string{
			"r0 = fd_files_create()\nfd_install(r0, 0x1)\nfd_fget_light(r0, 0x1)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &fdInstance{bugs: bugs}
			in.fops = k.RegisterFn(func(t *kernel.Task, arg uint64) uint64 { return EOK })
			return in
		},
	})
}

// fdCalls is the module's call table, in Defs order.
var fdCalls = [...]func(*fdInstance, *kernel.Task, []uint64) uint64{
	(*fdInstance).filesCreate, // fd_files_create
	(*fdInstance).install,     // fd_install
	(*fdInstance).fgetLight,   // fd_fget_light
}

// Call implements Instance.
func (in *fdInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return fdCalls[nr](in, t, args)
}

func (in *fdInstance) filesCreate(t *kernel.Task, args []uint64) uint64 {
	files := t.Kzalloc(1)
	fdt := t.Kzalloc(fdSlots)
	t.K.Mem.Write(kernel.Field(files, 0), uint64(fdt)) // pre-publication init
	return in.res.add(files)
}

// install publishes a file with release ordering (correct writer).
func (in *fdInstance) install(t *kernel.Task, args []uint64) uint64 {
	files, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	fd := args[1]
	if fd >= fdSlots {
		return EINVAL
	}
	defer t.Enter("fd_install")()
	file := t.Kzalloc(2)
	t.Store(fdSiteFop, kernel.Field(file, 0), in.fops)
	t.Store(fdSiteFmode, kernel.Field(file, 1), 3)
	fdt := t.K.Mem.Read(kernel.Field(files, 0))
	t.StoreRelease(fdSiteSlotRel, kernel.Field(trace.Addr(fdt), int(fd)), uint64(file))
	return EOK
}

// fgetLight is the lockless reader. The fixed variant uses acquire ordering
// on the table pointer (the 6.1 patch); the buggy one uses plain loads.
func (in *fdInstance) fgetLight(t *kernel.Task, args []uint64) uint64 {
	files, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	fd := args[1]
	if fd >= fdSlots {
		return EINVAL
	}
	defer t.Enter("__fget_light")()
	fdt := t.Load(fdSiteFdt, kernel.Field(files, 0))
	var file uint64
	if in.bugs.Has("fdtable:fget_acquire") {
		// Buggy pre-6.1 reader: plain load of the fd slot; subsequent
		// loads of the file's fields may be reordered before it.
		file = t.Load(fdSiteSlot, kernel.Field(trace.Addr(fdt), int(fd)))
	} else {
		// The fix: acquire ordering on the slot load.
		file = t.LoadAcquire(fdSiteSlot, kernel.Field(trace.Addr(fdt), int(fd)))
	}
	if file == 0 {
		return EBADF
	}
	fn := t.Load(fdSiteOpLd, kernel.Field(trace.Addr(file), 0))
	return t.CallFn(fdSiteCall, fn, fd)
}
