// Package vfs is a small in-memory filesystem substrate over the simulated
// kernel: inodes, directory entries, file descriptions, pipes, unix-socket
// pairs, fork, and mmap — enough surface to run the LMBench-shaped
// workloads of the paper's Table 5 (null/stat/open/close/create/delete/
// ctxsw/pipe/unix/fork/mmap) with and without OEMU instrumentation, and to
// serve as an additional fuzzing target.
//
// All metadata lives in simulated kernel memory and is accessed through the
// instrumented API, so the overhead ratio instrumented/uninstrumented is
// representative of the paper's kernel-wide instrumentation.
package vfs

import (
	"ozz/internal/kernel"
	"ozz/internal/trace"
)

// Site IDs for the vfs substrate (its own 16-bit space, above the modules).
const vfsBase trace.InstrID = 0x40 << 16

const (
	siteDirName = vfsBase + iota + 1
	siteDirIno
	siteInoMode
	siteInoSize
	siteInoNlink
	siteInoData
	siteFileIno
	siteFilePos
	siteFileRef
	siteData
	sitePipeHead
	sitePipeTail
	sitePipeBuf
	sitePid
	siteMapLen
)

const (
	dirSlots  = 64
	blockSize = 8 // words per data block
	// ModeFile is the mode word of a regular-file inode.
	ModeFile = 1
)

// FS is one mounted filesystem instance plus its open-file machinery.
type FS struct {
	K *kernel.Kernel
	// root directory: dirSlots entries x 2 words (name, inode).
	root trace.Addr
	// pidCounter is a global word incremented by the null syscall.
	pidCounter trace.Addr

	files []trace.Addr // open file descriptions by fd (0 = closed)
}

// New mounts a fresh filesystem on k.
func New(k *kernel.Kernel) *FS {
	return &FS{
		K:          k,
		root:       k.Mem.AllocZeroed(dirSlots * 2),
		pidCounter: k.Mem.AllocZeroed(1),
	}
}

// Getpid is the "null" syscall of LMBench: the cheapest possible kernel
// round trip (one load, one store).
func (fs *FS) Getpid(t *kernel.Task) uint64 {
	defer t.Enter("getpid")()
	v := t.Load(sitePid, fs.pidCounter)
	t.Store(sitePid, fs.pidCounter, v+1)
	return v
}

// lookup scans the root directory for name; returns the slot address and
// the inode (0 if absent).
func (fs *FS) lookup(t *kernel.Task, name uint64) (slot trace.Addr, inode uint64) {
	var free trace.Addr
	for i := 0; i < dirSlots; i++ {
		s := kernel.Field(fs.root, i*2)
		n := t.Load(siteDirName, s)
		if n == name && name != 0 {
			return s, t.Load(siteDirIno, s+8)
		}
		if n == 0 && free == 0 {
			free = s
		}
	}
	return free, 0
}

// Creat creates (or truncates) a file and returns an open fd, or an error
// (-1) when the directory is full.
func (fs *FS) Creat(t *kernel.Task, name uint64) int {
	defer t.Enter("sys_creat")()
	if name == 0 {
		return -1
	}
	slot, ino := fs.lookup(t, name)
	if ino == 0 {
		if slot == 0 {
			return -1 // directory full
		}
		inode := t.Kzalloc(4)
		data := t.Kzalloc(blockSize)
		t.Store(siteInoMode, kernel.Field(inode, 0), ModeFile)
		t.Store(siteInoSize, kernel.Field(inode, 1), 0)
		t.Store(siteInoNlink, kernel.Field(inode, 2), 1)
		t.Store(siteInoData, kernel.Field(inode, 3), uint64(data))
		t.Store(siteDirName, slot, name)
		t.Store(siteDirIno, slot+8, uint64(inode))
		ino = uint64(inode)
	} else {
		t.Store(siteInoSize, kernel.Field(trace.Addr(ino), 1), 0)
	}
	return fs.installFD(t, trace.Addr(ino))
}

// installFD allocates an open file description for the inode.
func (fs *FS) installFD(t *kernel.Task, inode trace.Addr) int {
	f := t.Kzalloc(3)
	t.Store(siteFileIno, kernel.Field(f, 0), uint64(inode))
	t.Store(siteFilePos, kernel.Field(f, 1), 0)
	t.Store(siteFileRef, kernel.Field(f, 2), 1)
	for i, a := range fs.files {
		if a == 0 {
			fs.files[i] = f
			return i
		}
	}
	fs.files = append(fs.files, f)
	return len(fs.files) - 1
}

func (fs *FS) file(fd int) trace.Addr {
	if fd < 0 || fd >= len(fs.files) {
		return 0
	}
	return fs.files[fd]
}

// Open opens an existing file.
func (fs *FS) Open(t *kernel.Task, name uint64) int {
	defer t.Enter("sys_open")()
	_, ino := fs.lookup(t, name)
	if ino == 0 {
		return -1
	}
	return fs.installFD(t, trace.Addr(ino))
}

// Close drops the fd; the description is freed when its refcount reaches
// zero.
func (fs *FS) Close(t *kernel.Task, fd int) int {
	defer t.Enter("sys_close")()
	f := fs.file(fd)
	if f == 0 {
		return -1
	}
	fs.files[fd] = 0
	ref := t.Load(siteFileRef, kernel.Field(f, 2))
	if ref <= 1 {
		t.Kfree(f)
	} else {
		t.Store(siteFileRef, kernel.Field(f, 2), ref-1)
	}
	return 0
}

// Stat returns the file's size, or ^0 when absent.
func (fs *FS) Stat(t *kernel.Task, name uint64) uint64 {
	defer t.Enter("sys_stat")()
	_, ino := fs.lookup(t, name)
	if ino == 0 {
		return ^uint64(0)
	}
	inode := trace.Addr(ino)
	t.Load(siteInoMode, kernel.Field(inode, 0))
	t.Load(siteInoNlink, kernel.Field(inode, 2))
	return t.Load(siteInoSize, kernel.Field(inode, 1))
}

// Unlink removes the directory entry and frees the inode when its link
// count reaches zero.
func (fs *FS) Unlink(t *kernel.Task, name uint64) int {
	defer t.Enter("sys_unlink")()
	slot, ino := fs.lookup(t, name)
	if ino == 0 {
		return -1
	}
	t.Store(siteDirName, slot, 0)
	t.Store(siteDirIno, slot+8, 0)
	inode := trace.Addr(ino)
	nlink := t.Load(siteInoNlink, kernel.Field(inode, 2))
	if nlink <= 1 {
		data := t.Load(siteInoData, kernel.Field(inode, 3))
		if data != 0 {
			t.Kfree(trace.Addr(data))
		}
		t.Kfree(inode)
	} else {
		t.Store(siteInoNlink, kernel.Field(inode, 2), nlink-1)
	}
	return 0
}

// Write appends one word to the file.
func (fs *FS) Write(t *kernel.Task, fd int, v uint64) int {
	defer t.Enter("sys_write")()
	f := fs.file(fd)
	if f == 0 {
		return -1
	}
	inode := trace.Addr(t.Load(siteFileIno, kernel.Field(f, 0)))
	size := t.Load(siteInoSize, kernel.Field(inode, 1))
	if size >= blockSize {
		return -1 // file full (single block)
	}
	data := trace.Addr(t.Load(siteInoData, kernel.Field(inode, 3)))
	t.Store(siteData, kernel.Field(data, int(size)), v)
	t.Store(siteInoSize, kernel.Field(inode, 1), size+1)
	return 1
}

// Read reads the word at the descriptor position and advances it.
func (fs *FS) Read(t *kernel.Task, fd int) (uint64, bool) {
	defer t.Enter("sys_read")()
	f := fs.file(fd)
	if f == 0 {
		return 0, false
	}
	inode := trace.Addr(t.Load(siteFileIno, kernel.Field(f, 0)))
	pos := t.Load(siteFilePos, kernel.Field(f, 1))
	size := t.Load(siteInoSize, kernel.Field(inode, 1))
	if pos >= size {
		return 0, false
	}
	data := trace.Addr(t.Load(siteInoData, kernel.Field(inode, 3)))
	v := t.Load(siteData, kernel.Field(data, int(pos)))
	t.Store(siteFilePos, kernel.Field(f, 1), pos+1)
	return v, true
}

// Pipe builds an in-kernel ring (modelled on the Fig. 1 watch-queue pipe,
// with both barriers present) and returns its object address. The ring has
// blockSize slots.
type Pipe struct {
	obj trace.Addr // [0]=head [1]=tail [2]=buf
}

// NewPipe allocates a pipe (also the "unix" socketpair substrate).
func (fs *FS) NewPipe(t *kernel.Task) *Pipe {
	defer t.Enter("sys_pipe")()
	obj := t.Kzalloc(3)
	buf := t.Kzalloc(blockSize)
	t.Store(sitePipeBuf, kernel.Field(obj, 2), uint64(buf))
	return &Pipe{obj: obj}
}

// Write posts one word; returns false when full. Publisher-side barrier
// included (correct code).
func (p *Pipe) Write(t *kernel.Task, v uint64) bool {
	defer t.Enter("pipe_write")()
	head := t.Load(sitePipeHead, kernel.Field(p.obj, 0))
	tail := t.Load(sitePipeTail, kernel.Field(p.obj, 1))
	if head-tail >= blockSize {
		return false
	}
	buf := trace.Addr(t.Load(sitePipeBuf, kernel.Field(p.obj, 2)))
	t.Store(siteData, kernel.Field(buf, int(head%blockSize)), v)
	t.Wmb(sitePipeHead)
	t.Store(sitePipeHead, kernel.Field(p.obj, 0), head+1)
	return true
}

// Read consumes one word; ok=false when empty. Consumer-side barrier
// included.
func (p *Pipe) Read(t *kernel.Task) (uint64, bool) {
	defer t.Enter("pipe_read")()
	head := t.Load(sitePipeHead, kernel.Field(p.obj, 0))
	tail := t.Load(sitePipeTail, kernel.Field(p.obj, 1))
	if head == tail {
		return 0, false
	}
	t.Rmb(sitePipeTail)
	buf := trace.Addr(t.Load(sitePipeBuf, kernel.Field(p.obj, 2)))
	v := t.Load(siteData, kernel.Field(buf, int(tail%blockSize)))
	t.Store(sitePipeTail, kernel.Field(p.obj, 1), tail+1)
	return v, true
}

// Fork models task creation: allocate a task struct, copy the fd table
// references (bumping refcounts), and register a new kernel task.
func (fs *FS) Fork(t *kernel.Task) *kernel.Task {
	defer t.Enter("sys_fork")()
	ts := t.Kzalloc(4)
	t.Store(siteMapLen, kernel.Field(ts, 0), uint64(t.ID))
	for _, f := range fs.files {
		if f == 0 {
			continue
		}
		ref := t.Load(siteFileRef, kernel.Field(f, 2))
		t.Store(siteFileRef, kernel.Field(f, 2), ref+1)
	}
	return fs.K.NewTask(t.CPU())
}

// Mmap allocates n blocks of address space and touches each page word.
func (fs *FS) Mmap(t *kernel.Task, blocks int) trace.Addr {
	defer t.Enter("sys_mmap")()
	if blocks <= 0 || blocks > 64 {
		return 0
	}
	region := t.Kzalloc(blocks * blockSize)
	for b := 0; b < blocks; b++ {
		t.Store(siteData, kernel.Field(region, b*blockSize), 0) // touch
	}
	return region
}

// MmapTouch is Mmap plus a fault-in of EVERY word of the region (the
// LMBench mmap test touches each mapped page; touching maximizes the
// instrumented-access density, which is why mmap is Table 5's worst case).
func (fs *FS) MmapTouch(t *kernel.Task, blocks int) trace.Addr {
	region := fs.Mmap(t, blocks)
	if region == 0 {
		return 0
	}
	defer t.Enter("sys_mmap")()
	for w := 0; w < blocks*blockSize; w++ {
		t.Store(siteData, kernel.Field(region, w), uint64(w))
		t.Load(siteData, kernel.Field(region, w))
	}
	return region
}

// Munmap releases an mmapped region.
func (fs *FS) Munmap(t *kernel.Task, region trace.Addr) {
	defer t.Enter("sys_munmap")()
	t.Kfree(region)
}
