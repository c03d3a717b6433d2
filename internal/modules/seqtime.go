package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
)

// seqtime exercises the seqlock substrate with a timekeeping-style two-word
// clock (sec, nsec) whose invariant nsec == 2*sec a torn read violates:
//
//   - time_update() advances the pair under write_seqcount (odd/even
//     sequence with smp_wmb on both sides);
//   - time_read() samples the pair under read_seqbegin/read_seqretry. The
//     CORRECT retry re-reads the sequence after an smp_rmb; the bug switch
//     "seqlock:retry_rmb" drops that barrier, letting the retry check
//     observe a stale (pre-update) sequence while the data loads saw a
//     torn mixture — a load-load reordering accepted as a consistent
//     snapshot. The torn pair trips the invariant assertion
//     ("kernel BUG: torn seqlock read in time_read").
//
// Object layout: clk: [0]=seq [1]=sec [2]=nsec [3]=writer lock
var (
	seqSiteWBegin = site(0x43<<16+1, "time_update:write_seqcount_begin")
	seqSiteSec    = site(0x43<<16+2, "time_update:clk->sec=s")
	seqSiteNsec   = site(0x43<<16+3, "time_update:clk->nsec=2s")
	seqSiteWEnd   = site(0x43<<16+4, "time_update:write_seqcount_end")
	seqSiteRBegin = site(0x43<<16+5, "time_read:read_seqbegin")
	seqSiteRSec   = site(0x43<<16+6, "time_read:load clk->sec")
	seqSiteRNsec  = site(0x43<<16+7, "time_read:load clk->nsec")
	seqSiteRetry  = site(0x43<<16+8, "time_read:read_seqretry")
	seqSiteLock   = site(0x43<<16+9, "time_update:write_seqlock spinlock")
)

// seqReadRetries bounds the reader's retry loop.
const seqReadRetries = 8

type seqInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "seqtime",
		Defs: []*syzlang.SyscallDef{
			{Name: "time_create", Module: "seqtime", Ret: "seq_clock"},
			{Name: "time_update", Module: "seqtime",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "seq_clock"}}},
			{Name: "time_read", Module: "seqtime",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "seq_clock"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "X#seq", Switch: "seqlock:retry_rmb", Module: "seqtime",
				Subsystem: "timekeeping", KernelVersion: "synthetic",
				Title: "kernel BUG: torn seqlock read in time_read",
				Type:  "L-L", Table: 0, OFencePattern: true, Repro: "yes",
				Note: "missing smp_rmb before read_seqretry's sequence re-read: the retry accepts a stale sequence over torn data",
			},
		},
		Seeds: []string{
			"r0 = time_create()\ntime_update(r0)\ntime_update(r0)\ntime_read(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &seqInstance{bugs: bugs}
			return in
		},
	})
}

// seqCalls is the module's call table, in Defs order.
var seqCalls = [...]func(*seqInstance, *kernel.Task, []uint64) uint64{
	(*seqInstance).create, // time_create
	(*seqInstance).update, // time_update
	(*seqInstance).read,   // time_read
}

// Call implements Instance.
func (in *seqInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return seqCalls[nr](in, t, args)
}

func (in *seqInstance) create(t *kernel.Task, args []uint64) uint64 {
	return in.res.add(t.Kzalloc(4))
}

func (in *seqInstance) update(t *kernel.Task, args []uint64) uint64 {
	clk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("time_update")()
	// write_seqlock(): writers serialize on a spinlock before bumping the
	// sequence.
	t.SpinLock(seqSiteLock, kernel.Field(clk, 3), "seqtime_writer")
	defer t.SpinUnlock(seqSiteLock, kernel.Field(clk, 3))
	t.WriteSeqBegin(seqSiteWBegin, kernel.Field(clk, 0))
	sec := t.Load(seqSiteSec, kernel.Field(clk, 1)) + 1
	t.Store(seqSiteSec, kernel.Field(clk, 1), sec)
	t.Store(seqSiteNsec, kernel.Field(clk, 2), 2*sec)
	t.WriteSeqEnd(seqSiteWEnd, kernel.Field(clk, 0))
	return EOK
}

func (in *seqInstance) read(t *kernel.Task, args []uint64) uint64 {
	clk, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("time_read")()
	rmb := !in.bugs.Has("seqlock:retry_rmb")
	for try := 0; try < seqReadRetries; try++ {
		start := t.ReadSeqBegin(seqSiteRBegin, kernel.Field(clk, 0))
		sec := t.Load(seqSiteRSec, kernel.Field(clk, 1))
		nsec := t.Load(seqSiteRNsec, kernel.Field(clk, 2))
		if t.ReadSeqRetry(seqSiteRetry, kernel.Field(clk, 0), start, rmb) {
			continue // raced a writer: retry
		}
		t.Assert(nsec == 2*sec, "torn seqlock read")
		return sec
	}
	return EAGAIN
}
