package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
)

// filemap reproduces the bug class of the paper's citation [62] (Li 2023,
// e2c27b803bb6: "mm/filemap: avoid buffered read/write race to read
// inconsistent data") — a DATA-LOSS symptom, not a crash. A buffered write
// copies data into the page and then publishes the new file size with
// correct write ordering; the buffered-read fast path loaded the size and
// then the page WITHOUT read ordering. Load-load reordering lets the read
// observe the new size over stale page contents: the syscall silently
// returns inconsistent data. The switch "filemap:read_rmb" removes the
// reader's barrier (the fix added it).
//
// Object layout: file: [0]=i_size [1..4]=page words
const fmPageWords = 4

var (
	fmSiteWSize = site(0x44<<16+1, "filemap_write:load i_size")
	fmSitePage  = site(0x44<<16+2, "filemap_write:page[n]=data")
	fmSiteWmb   = site(0x44<<16+3, "filemap_write:smp_wmb")
	fmSitePub   = site(0x44<<16+4, "filemap_write:i_size=n+1")
	fmSiteRSize = site(0x44<<16+5, "filemap_read:load i_size")
	fmSiteRmb   = site(0x44<<16+6, "filemap_read:smp_rmb")
	fmSiteRPage = site(0x44<<16+7, "filemap_read:load page[n-1]")
)

type fmInstance struct {
	k    *kernel.Kernel
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "filemap",
		Defs: []*syzlang.SyscallDef{
			{Name: "fm_open", Module: "filemap", Ret: "fm_file"},
			{Name: "fm_write", Module: "filemap",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "fm_file"}, syzlang.IntRange{Min: 1, Max: 0xffff}}},
			{Name: "fm_read", Module: "filemap",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "fm_file"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#filemap", Switch: "filemap:read_rmb", Module: "filemap",
				Subsystem: "mm", KernelVersion: "6.7",
				SoftTitle: "filemap: buffered read returned inconsistent data (data loss)",
				Type:      "L-L", Table: 0, OFencePattern: true, Repro: "yes",
				Note: "the paper's citation [62]: a silent data-loss symptom — the in-vivo semantic oracle catches what no crash detector would",
			},
		},
		Seeds: []string{
			"r0 = fm_open()\nfm_write(r0, 0x11)\nfm_read(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &fmInstance{k: k, bugs: bugs}
			return in
		},
	})
}

// fmCalls is the module's call table, in Defs order.
var fmCalls = [...]func(*fmInstance, *kernel.Task, []uint64) uint64{
	(*fmInstance).open,  // fm_open
	(*fmInstance).write, // fm_write
	(*fmInstance).read,  // fm_read
}

// Call implements Instance.
func (in *fmInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return fmCalls[nr](in, t, args)
}

func (in *fmInstance) open(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(1 + fmPageWords))
}

// write appends one word with correct write ordering (page before size).
func (in *fmInstance) write(t *kernel.Task, args []uint64) uint64 {
	f, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("filemap_write")()
	n := t.Load(fmSiteWSize, kernel.Field(f, 0))
	if n >= fmPageWords {
		return EINVAL
	}
	t.Store(fmSitePage, kernel.Field(f, 1+int(n)), args[1])
	t.Wmb(fmSiteWmb) // correct writer: data visible before the size
	t.Store(fmSitePub, kernel.Field(f, 0), n+1)
	return EOK
}

// read is the buffered-read fast path: size check then page load. The
// missing smp_rmb is the bug.
func (in *fmInstance) read(t *kernel.Task, args []uint64) uint64 {
	f, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("filemap_read")()
	n := t.Load(fmSiteRSize, kernel.Field(f, 0))
	if n == 0 {
		return EAGAIN
	}
	if !in.bugs.Has("filemap:read_rmb") {
		t.Rmb(fmSiteRmb)
	}
	v := t.Load(fmSiteRPage, kernel.Field(f, 1+int(n-1)))
	if v == 0 {
		// The size says the word exists; a zero here is the page's
		// pre-write state — the read tore.
		t.SoftReport("filemap: buffered read returned inconsistent data (data loss)")
	}
	return v
}
