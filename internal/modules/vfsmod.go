package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/vfs"
)

// vfsmod exposes the VFS substrate (internal/vfs) as a fuzzing module: a
// bug-free but stateful target that exercises the allocator, the fd table,
// and the pipe rings under the fuzzer — broadening coverage beyond the bug
// corpus, like the generic syscalls in a syzkaller config.
type vfsInstance struct {
	fs    *vfs.FS
	pipes []*vfs.Pipe
}

func init() {
	register(&ModuleInfo{
		Name: "vfs",
		Defs: []*syzlang.SyscallDef{
			{Name: "vfs_getpid", Module: "vfs"},
			{Name: "vfs_creat", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.IntRange{Min: 1, Max: 16}}, Ret: "fd_vfs"},
			{Name: "vfs_open", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.IntRange{Min: 1, Max: 16}}, Ret: "fd_vfs"},
			{Name: "vfs_close", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "fd_vfs"}}},
			{Name: "vfs_stat", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.IntRange{Min: 1, Max: 16}}},
			{Name: "vfs_unlink", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.IntRange{Min: 1, Max: 16}}},
			{Name: "vfs_write", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "fd_vfs"}, syzlang.IntRange{Min: 0, Max: 0xffff}}},
			{Name: "vfs_read", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "fd_vfs"}}},
			{Name: "vfs_pipe", Module: "vfs", Ret: "pipe_vfs"},
			{Name: "vfs_pipe_write", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "pipe_vfs"}, syzlang.IntRange{Min: 0, Max: 0xffff}}},
			{Name: "vfs_pipe_read", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "pipe_vfs"}}},
			{Name: "vfs_mmap", Module: "vfs",
				Args: []syzlang.ArgType{syzlang.IntRange{Min: 1, Max: 8}}},
		},
		Seeds: []string{
			"r0 = vfs_creat(0x3)\nvfs_write(r0, 0x11)\nvfs_read(r0)\nvfs_close(r0)\nvfs_stat(0x3)\nvfs_unlink(0x3)\n",
			"r0 = vfs_pipe()\nvfs_pipe_write(r0, 0x22)\nvfs_pipe_read(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			return &vfsInstance{fs: vfs.New(k)}
		},
	})
}

// vfsCalls is the module's call table, in Defs order.
var vfsCalls = [...]func(*vfsInstance, *kernel.Task, []uint64) uint64{
	(*vfsInstance).getpid,    // vfs_getpid
	(*vfsInstance).creat,     // vfs_creat
	(*vfsInstance).open,      // vfs_open
	(*vfsInstance).close,     // vfs_close
	(*vfsInstance).stat,      // vfs_stat
	(*vfsInstance).unlink,    // vfs_unlink
	(*vfsInstance).write,     // vfs_write
	(*vfsInstance).read,      // vfs_read
	(*vfsInstance).pipe,      // vfs_pipe
	(*vfsInstance).pipeWrite, // vfs_pipe_write
	(*vfsInstance).pipeRead,  // vfs_pipe_read
	(*vfsInstance).mmap,      // vfs_mmap
}

// Call implements Instance.
func (in *vfsInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return vfsCalls[nr](in, t, args)
}

// fd converts a 0-based vfs-layer fd into a handle: shifted by one so 0
// stays "invalid handle".
func fd(ret int) uint64 {
	if ret < 0 {
		return EBADF
	}
	return uint64(ret) + 1
}

// unfd converts a handle back into a vfs-layer fd.
func unfd(h uint64) (int, bool) {
	if h == 0 || int64(h) < 0 {
		return 0, false
	}
	return int(h) - 1, true
}

func (in *vfsInstance) getpid(t *kernel.Task, args []uint64) uint64 {
	return in.fs.Getpid(t)
}

func (in *vfsInstance) creat(t *kernel.Task, args []uint64) uint64 {
	return fd(in.fs.Creat(t, args[0]))
}

func (in *vfsInstance) open(t *kernel.Task, args []uint64) uint64 {
	return fd(in.fs.Open(t, args[0]))
}

func (in *vfsInstance) close(t *kernel.Task, args []uint64) uint64 {
	n, ok := unfd(args[0])
	if !ok {
		return EBADF
	}
	if in.fs.Close(t, n) != 0 {
		return EBADF
	}
	return EOK
}

func (in *vfsInstance) stat(t *kernel.Task, args []uint64) uint64 {
	return in.fs.Stat(t, args[0])
}

func (in *vfsInstance) unlink(t *kernel.Task, args []uint64) uint64 {
	if in.fs.Unlink(t, args[0]) != 0 {
		return EBADF
	}
	return EOK
}

func (in *vfsInstance) write(t *kernel.Task, args []uint64) uint64 {
	n, ok := unfd(args[0])
	if !ok {
		return EBADF
	}
	if in.fs.Write(t, n, args[1]) != 1 {
		return EINVAL
	}
	return EOK
}

func (in *vfsInstance) read(t *kernel.Task, args []uint64) uint64 {
	n, ok := unfd(args[0])
	if !ok {
		return EBADF
	}
	v, got := in.fs.Read(t, n)
	if !got {
		return EAGAIN
	}
	return v
}

func (in *vfsInstance) pipe(t *kernel.Task, args []uint64) uint64 {
	in.pipes = append(in.pipes, in.fs.NewPipe(t))
	return uint64(len(in.pipes))
}

func (in *vfsInstance) pipeWrite(t *kernel.Task, args []uint64) uint64 {
	if args[0] == 0 || args[0] > uint64(len(in.pipes)) {
		return EBADF
	}
	if !in.pipes[args[0]-1].Write(t, args[1]) {
		return EAGAIN
	}
	return EOK
}

func (in *vfsInstance) pipeRead(t *kernel.Task, args []uint64) uint64 {
	if args[0] == 0 || args[0] > uint64(len(in.pipes)) {
		return EBADF
	}
	v, ok := in.pipes[args[0]-1].Read(t)
	if !ok {
		return EAGAIN
	}
	return v
}

func (in *vfsInstance) mmap(t *kernel.Task, args []uint64) uint64 {
	r := in.fs.Mmap(t, int(args[0]))
	if r == 0 {
		return EINVAL
	}
	in.fs.Munmap(t, r)
	return EOK
}
