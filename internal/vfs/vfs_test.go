package vfs

import (
	"testing"

	"ozz/internal/kernel"
	"ozz/internal/kmem"
	"ozz/internal/sched"
	"ozz/internal/trace"
)

// run executes body on a fresh kernel+fs inside a sequential session.
func run(t *testing.T, body func(fs *FS, task *kernel.Task)) {
	t.Helper()
	k := kernel.New()
	fs := New(k)
	task := k.NewTask(0)
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(0, 0, func(st *sched.Task) {
		task.Bind(st)
		body(fs, task)
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
}

// freed reports whether addr lies in a freed object: the sanitizer
// reports a use-after-free for any access to it.
func freed(task *kernel.Task, addr trace.Addr) bool {
	f := task.K.Mem.Check(0, addr, trace.Load)
	return f != nil && f.Kind == kmem.FaultUAF
}

func TestCreatWriteReadStat(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		fd := fs.Creat(task, 0xf11e)
		if fd < 0 {
			t.Errorf("creat failed")
		}
		for i := uint64(1); i <= 3; i++ {
			if fs.Write(task, fd, i*10) != 1 {
				t.Errorf("write %d failed", i)
			}
		}
		if got := fs.Stat(task, 0xf11e); got != 3 {
			t.Errorf("stat size = %d, want 3", got)
		}
		if fs.Close(task, fd) != 0 {
			t.Errorf("close failed")
		}
		fd2 := fs.Open(task, 0xf11e)
		for want := uint64(10); want <= 30; want += 10 {
			v, ok := fs.Read(task, fd2)
			if !ok || v != want {
				t.Errorf("read = %d/%v, want %d", v, ok, want)
			}
		}
		if _, ok := fs.Read(task, fd2); ok {
			t.Errorf("read past EOF succeeded")
		}
	})
}

func TestOpenMissing(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		if fs.Open(task, 0x404) >= 0 {
			t.Errorf("open of missing file succeeded")
		}
		if fs.Stat(task, 0x404) != ^uint64(0) {
			t.Errorf("stat of missing file succeeded")
		}
	})
}

func TestUnlinkFreesInode(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		fd := fs.Creat(task, 0xaa)
		fs.Write(task, fd, 1)
		fs.Close(task, fd)
		_, ino := fs.lookup(task, 0xaa)
		inode := trace.Addr(ino)
		data := trace.Addr(task.Load(siteInoData, kernel.Field(inode, 3)))
		if fs.Unlink(task, 0xaa) != 0 {
			t.Errorf("unlink failed")
		}
		if !freed(task, inode) || !freed(task, data) {
			t.Errorf("unlink must free the inode and its data block")
		}
		if fs.Open(task, 0xaa) >= 0 {
			t.Errorf("open after unlink succeeded")
		}
	})
}

func TestCreatTruncates(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		fd := fs.Creat(task, 0xbb)
		fs.Write(task, fd, 1)
		fs.Close(task, fd)
		fd2 := fs.Creat(task, 0xbb)
		if got := fs.Stat(task, 0xbb); got != 0 {
			t.Errorf("creat did not truncate: size %d", got)
		}
		fs.Close(task, fd2)
	})
}

func TestFDReuse(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		a := fs.Creat(task, 1)
		fs.Close(task, a)
		b := fs.Creat(task, 2)
		if b != a {
			t.Errorf("fd not reused: %d then %d", a, b)
		}
	})
}

func TestPipeRing(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		p := fs.NewPipe(task)
		if _, ok := p.Read(task); ok {
			t.Errorf("read from empty pipe succeeded")
		}
		for i := uint64(0); i < blockSize; i++ {
			if !p.Write(task, i) {
				t.Errorf("write %d failed", i)
			}
		}
		if p.Write(task, 99) {
			t.Errorf("write to full pipe succeeded")
		}
		for i := uint64(0); i < blockSize; i++ {
			v, ok := p.Read(task)
			if !ok || v != i {
				t.Errorf("read = %d/%v, want %d", v, ok, i)
			}
		}
		// Wrap-around.
		p.Write(task, 7)
		if v, ok := p.Read(task); !ok || v != 7 {
			t.Errorf("wrapped read = %d/%v", v, ok)
		}
	})
}

func TestForkBumpsRefcounts(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		fd := fs.Creat(task, 5)
		child := fs.Fork(task)
		if child == nil || child.ID == task.ID {
			t.Errorf("fork returned bad task")
		}
		// Close once: the description must survive (child's reference).
		f := fs.files[fd]
		fs.Close(task, fd)
		if freed(task, f) {
			t.Errorf("file description freed despite child reference")
		}
	})
}

func TestMmapMunmap(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		r := fs.Mmap(task, 4)
		if r == 0 {
			t.Errorf("mmap failed")
		}
		fs.Munmap(task, r)
		if fs.Mmap(task, 0) != 0 || fs.Mmap(task, 1000) != 0 {
			t.Errorf("mmap accepted bad sizes")
		}
	})
}

func TestGetpidCounts(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		a := fs.Getpid(task)
		b := fs.Getpid(task)
		if b != a+1 {
			t.Errorf("getpid: %d then %d", a, b)
		}
	})
}

func TestDirectoryFull(t *testing.T) {
	run(t, func(fs *FS, task *kernel.Task) {
		for i := 0; i < dirSlots; i++ {
			fd := fs.Creat(task, uint64(i+1))
			if fd < 0 {
				t.Fatalf("creat %d failed early", i)
			}
			fs.Close(task, fd)
		}
		if fs.Creat(task, 0x999) >= 0 {
			t.Errorf("creat succeeded on full directory")
		}
		// Unlinking one slot makes room again.
		fs.Unlink(task, 1)
		if fs.Creat(task, 0x999) < 0 {
			t.Errorf("creat failed after unlink freed a slot")
		}
	})
}
