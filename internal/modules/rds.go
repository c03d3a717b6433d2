package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// rds reproduces the paper's Bug #1 (Fig. 8): the RDS connection path uses
// a hand-rolled bit lock — acquire_in_xmit() is !test_and_set_bit(IN_XMIT)
// and release_in_xmit() is clear_bit(IN_XMIT). clear_bit() carries NO
// ordering, so the critical section's stores may be delayed past the bit
// clear; a thread that then acquires the lock observes a half-updated
// transmit cursor and indexes past the staged message's scatter list:
// "KASAN: slab-out-of-bounds Read in rds_loop_xmit". The fix is
// clear_bit_unlock() (release semantics); the switch
// "rds:clear_bit_unlock" reverts it.
//
// Object layout:
//
//	conn: [0]=cp_flags (bit 0 = IN_XMIT) [1]=xmit_sg (cursor) [2]=xmit_rm (staged msg)
//	msg:  kmalloc(n) data words
//
// rds_sendmsg stages a message for the loop transport: it sets the cursor
// to the message's last scatter element, then publishes the message
// pointer, then drops IN_XMIT. rds_loop_xmit picks the staged message up
// and reads msg[cursor]. With the unordered clear_bit, OEMU can delay the
// cursor store past both the message publication and the bit clear: the
// loop transport then pairs a NEW (smaller) message with the OLD cursor.
const rdsInXmit = 0

var (
	rdsSiteTrySet   = site(rdsBase+1, "acquire_in_xmit:test_and_set_bit(IN_XMIT)")
	rdsSiteCursor   = site(rdsBase+2, "rds_send_xmit:cp->xmit_sg=n-1")
	rdsSiteFill     = site(rdsBase+3, "rds_send_xmit:rm->data[i]=payload")
	rdsSiteStage    = site(rdsBase+4, "rds_send_xmit:cp->xmit_rm=rm")
	rdsSiteClear    = site(rdsBase+5, "release_in_xmit:clear_bit(IN_XMIT)")
	rdsSiteLoopTry  = site(rdsBase+6, "rds_loop_xmit:test_and_set_bit(IN_XMIT)")
	rdsSiteLoopRm   = site(rdsBase+7, "rds_loop_xmit:rm=cp->xmit_rm")
	rdsSiteLoopSg   = site(rdsBase+8, "rds_loop_xmit:idx=cp->xmit_sg")
	rdsSiteLoopRead = site(rdsBase+9, "rds_loop_xmit:load rm->data[idx]")
	rdsSiteLoopDone = site(rdsBase+10, "rds_loop_xmit:cp->xmit_rm=0")
	rdsSiteLoopRel  = site(rdsBase+11, "rds_loop_xmit:clear_bit_unlock(IN_XMIT)")
)

type rdsInstance struct {
	bugs BugSet
	res  resTable
}

func init() {
	register(&ModuleInfo{
		Name: "rds",
		Defs: []*syzlang.SyscallDef{
			{Name: "rds_socket", Module: "rds", Ret: "sock_rds"},
			{Name: "rds_sendmsg", Module: "rds",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_rds"}, syzlang.IntRange{Min: 1, Max: 4}}},
			{Name: "rds_loop_xmit", Module: "rds",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "sock_rds"}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T3#1", Switch: "rds:clear_bit_unlock", Module: "rds",
				Subsystem: "RDS", KernelVersion: "v6.7-rc8",
				Title: "KASAN: slab-out-of-bounds Read in rds_loop_xmit",
				Type:  "S-S", Status: "Fixed", Table: 3, OFencePattern: false,
				Note: "Fig. 8: custom bit lock released with unordered clear_bit; no data race, so race detectors cannot see it",
			},
		},
		Seeds: []string{
			"r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &rdsInstance{bugs: bugs}
			return in
		},
	})
}

// rdsCalls is the module's call table, in Defs order.
var rdsCalls = [...]func(*rdsInstance, *kernel.Task, []uint64) uint64{
	(*rdsInstance).socket,   // rds_socket
	(*rdsInstance).sendmsg,  // rds_sendmsg
	(*rdsInstance).loopXmit, // rds_loop_xmit
}

// Call implements Instance.
func (in *rdsInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return rdsCalls[nr](in, t, args)
}

func (in *rdsInstance) socket(t *kernel.Task, args []uint64) uint64 {
	conn := t.Kzalloc(3)
	return in.res.add(conn)
}

// sendmsg stages an n-word message under the IN_XMIT bit lock (Fig. 8 left,
// plus the staging protocol of rds_send_xmit).
func (in *rdsInstance) sendmsg(t *kernel.Task, args []uint64) uint64 {
	conn, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	n := args[1]
	if n == 0 || n > 4 {
		return EINVAL
	}
	defer t.Enter("rds_send_xmit")()
	// acquire_in_xmit(): Fig. 8 #2-#8.
	if t.TestAndSetBit(rdsSiteTrySet, rdsInXmit, kernel.Field(conn, 0)) {
		return EBUSY
	}
	rm := t.Kmalloc(int(n))
	for i := uint64(0); i < n; i++ {
		t.Store(rdsSiteFill, kernel.Field(rm, int(i)), 0xda7a_0000+i)
	}
	t.Store(rdsSiteCursor, kernel.Field(conn, 1), n-1)       // cp->xmit_sg = n-1
	t.Store(rdsSiteStage, kernel.Field(conn, 2), uint64(rm)) // cp->xmit_rm = rm
	// release_in_xmit(): Fig. 8 right. The buggy variant uses plain
	// clear_bit — no ordering against the critical section's stores.
	if in.bugs.Has("rds:clear_bit_unlock") {
		t.ClearBit(rdsSiteClear, rdsInXmit, kernel.Field(conn, 0))
	} else {
		t.ClearBitUnlock(rdsSiteClear, rdsInXmit, kernel.Field(conn, 0))
	}
	return EOK
}

// loopXmit is the loopback transport: it acquires IN_XMIT, consumes the
// staged message, and reads its scatter element at the cursor.
func (in *rdsInstance) loopXmit(t *kernel.Task, args []uint64) uint64 {
	conn, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("rds_loop_xmit")()
	if t.TestAndSetBit(rdsSiteLoopTry, rdsInXmit, kernel.Field(conn, 0)) {
		return EBUSY
	}
	var val uint64
	rm := t.Load(rdsSiteLoopRm, kernel.Field(conn, 2))
	if rm != 0 {
		idx := t.Load(rdsSiteLoopSg, kernel.Field(conn, 1))
		val = t.Load(rdsSiteLoopRead, kernel.Field(trace.Addr(rm), int(idx)))
		t.Store(rdsSiteLoopDone, kernel.Field(conn, 2), 0)
	}
	t.ClearBitUnlock(rdsSiteLoopRel, rdsInXmit, kernel.Field(conn, 0))
	return val
}
