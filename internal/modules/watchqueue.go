package modules

import (
	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// watchqueue reproduces two bugs of the Linux general notification
// mechanism (kernel/watch_queue.c + fs/pipe.c):
//
//   - T4#2 — the Fig. 1 bug [Howells, 2ed147f015af]: post_one_notification
//     initializes a pipe ring-buffer entry (buf->len, buf->ops) and then
//     publishes it by advancing head; pipe_read checks head > tail and
//     dereferences buf->ops->confirm. Both an smp_wmb() in the poster and
//     an smp_rmb() in the reader are required; the switches
//     "watchqueue:pipe_wmb" / "watchqueue:pipe_rmb" remove them.
//
//   - T3#2 — "BUG: unable to handle kernel NULL pointer dereference in
//     _find_first_bit": wqueue_set_filter builds a filter object (bitmap
//     pointer + size) and publishes it in wqueue->filter; the poster loads
//     the filter and scans the bitmap. The missing smp_wmb() between
//     bitmap initialization and filter publication is the switch
//     "watchqueue:post_wmb_bit".
//
// Object layout (64-bit words):
//
//	pipe:   [0]=head [1]=tail [2]=bufs [3]=filter
//	bufs:   ring of ringSize entries, entry = [0]=len [1]=ops
//	filter: [0]=bitmap [1]=nr_bits
//	bitmap: [0]=bits
const wqRingSize = 4

// Instruction sites. Comments give the Fig. 1 line they mirror.
var (
	wqSiteBufLen     = site(watchqueueBase+1, "post_one_notification:buf->len=len")        // #5
	wqSiteBufOps     = site(watchqueueBase+2, "post_one_notification:buf->ops=&ops")       // #6
	wqSitePostWmb    = site(watchqueueBase+3, "post_one_notification:smp_wmb")             // #7
	wqSiteHeadInc    = site(watchqueueBase+4, "post_one_notification:head+=1")             // #8
	wqSiteLoadHead   = site(watchqueueBase+5, "pipe_read:load head")                       // #14
	wqSiteLoadTail   = site(watchqueueBase+6, "pipe_read:load tail")                       // #14
	wqSiteReadRmb    = site(watchqueueBase+7, "pipe_read:smp_rmb")                         // #15
	wqSiteLoadLen    = site(watchqueueBase+8, "pipe_read:len=buf->len")                    // #17
	wqSiteLoadOps    = site(watchqueueBase+9, "pipe_read:buf->ops->confirm")               // #18
	wqSiteCallOps    = site(watchqueueBase+10, "pipe_read:call confirm")                   // #18
	wqSiteTailInc    = site(watchqueueBase+11, "pipe_read:tail+=1")                        //
	wqSiteBmBits     = site(watchqueueBase+12, "wqueue_set_filter:bitmap[0]=bits")         //
	wqSiteFBitmap    = site(watchqueueBase+13, "wqueue_set_filter:filter->bitmap=bm")      //
	wqSiteFNr        = site(watchqueueBase+14, "wqueue_set_filter:filter->nr_bits=n")      //
	wqSiteFilterWmb  = site(watchqueueBase+15, "wqueue_set_filter:smp_wmb")                //
	wqSitePubFilter  = site(watchqueueBase+16, "wqueue_set_filter:WRITE_ONCE(wq->filter)") //
	wqSiteLoadFilter = site(watchqueueBase+17, "post_one_notification:READ_ONCE(wq->filter)")
	wqSiteLoadBitmap = site(watchqueueBase+18, "post_one_notification:f->bitmap")
	wqSiteScanBitmap = site(watchqueueBase+19, "_find_first_bit:load bitmap[0]")
	wqSitePostHead   = site(watchqueueBase+20, "post_one_notification:load head")
	wqSitePostTail   = site(watchqueueBase+21, "post_one_notification:load tail")
)

type wqInstance struct {
	bugs BugSet
	res  resTable
	ops  uint64 // wq_pipe_buf_confirm function-pointer value
}

func init() {
	register(&ModuleInfo{
		Name: "watchqueue",
		Defs: []*syzlang.SyscallDef{
			{Name: "wq_create", Module: "watchqueue", Ret: "wq_pipe"},
			{Name: "wq_post_notification", Module: "watchqueue",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "wq_pipe"}, syzlang.IntRange{Min: 1, Max: 8}}},
			{Name: "wq_pipe_read", Module: "watchqueue",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "wq_pipe"}}},
			{Name: "wq_set_filter", Module: "watchqueue",
				Args: []syzlang.ArgType{syzlang.ResourceArg{Kind: "wq_pipe"}, syzlang.IntRange{Min: 1, Max: 64}}},
		},
		Bugs: []BugInfo{
			{
				ID: "T4#2", Switch: "watchqueue:pipe_wmb", Module: "watchqueue",
				Subsystem: "watchqueue", KernelVersion: "5.17-rc7",
				Title: "BUG: unable to handle kernel NULL pointer dereference in pipe_read",
				Type:  "S-S", Table: 4, OFencePattern: true, Repro: "yes",
				Note: "Fig. 1 bug (Howells 2022, watch_queue post/read barrier pair)",
			},
			{
				ID: "X#rmb", Switch: "watchqueue:pipe_rmb", Module: "watchqueue",
				Subsystem: "watchqueue", KernelVersion: "5.17-rc7",
				Title: "BUG: unable to handle kernel NULL pointer dereference in pipe_read",
				Type:  "L-L", Table: 0, OFencePattern: true, Repro: "yes",
				Note: "reader half of the Fig. 1 pair (missing smp_rmb in pipe_read)",
			},
			{
				ID: "T3#2", Switch: "watchqueue:post_wmb_bit", Module: "watchqueue",
				Subsystem: "watchqueue", KernelVersion: "6.5-rc6",
				Title: "BUG: unable to handle kernel NULL pointer dereference in _find_first_bit",
				Type:  "S-S", Status: "Reported", Table: 3, OFencePattern: false,
			},
		},
		Seeds: []string{
			"r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n",
			"r0 = wq_create()\nwq_set_filter(r0, 0x20)\nwq_post_notification(r0, 0x2)\n",
		},
		New: func(k *kernel.Kernel, bugs BugSet) Instance {
			in := &wqInstance{bugs: bugs}
			in.ops = k.RegisterFn(func(t *kernel.Task, arg uint64) uint64 {
				return 0
			})
			return in
		},
	})
}

// wqCalls is the module's call table, in Defs order.
var wqCalls = [...]func(*wqInstance, *kernel.Task, []uint64) uint64{
	(*wqInstance).create,           // wq_create
	(*wqInstance).postNotification, // wq_post_notification
	(*wqInstance).pipeRead,         // wq_pipe_read
	(*wqInstance).setFilter,        // wq_set_filter
}

// Call implements Instance.
func (in *wqInstance) Call(nr int, t *kernel.Task, args []uint64) uint64 {
	return wqCalls[nr](in, t, args)
}

func (in *wqInstance) create(t *kernel.Task, args []uint64) uint64 {
	pipe := t.Kzalloc(4)
	bufs := t.Kzalloc(wqRingSize * 2)
	t.K.Mem.Write(kernel.Field(pipe, 2), uint64(bufs)) // setup store, pre-publication
	return in.res.add(pipe)
}

// post is post_one_notification(): the left column of Fig. 1 plus the
// filter check of the T3#2 bug.
func (in *wqInstance) postNotification(t *kernel.Task, args []uint64) uint64 {
	pipe, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	length := args[1]
	defer t.Enter("post_one_notification")()

	// T3#2 surface: consult the subscription filter if one is installed.
	f := t.ReadOnce(wqSiteLoadFilter, kernel.Field(pipe, 3))
	if f != 0 {
		bm := t.Load(wqSiteLoadBitmap, kernel.Field(trace.Addr(f), 0))
		func() {
			defer t.Enter("_find_first_bit")()
			// Scan the subscription bitmap. If the filter was
			// published before its bitmap pointer committed, bm is
			// NULL here.
			bits := t.Load(wqSiteScanBitmap, trace.Addr(bm))
			if bits == 0 {
				// No subscribed watches: drop the notification.
				length = 0
			}
		}()
		if length == 0 {
			return EOK
		}
	}

	// T4#2 surface (Fig. 1 left): initialize the ring entry, then publish
	// by advancing head.
	head := t.Load(wqSitePostHead, kernel.Field(pipe, 0))
	tail := t.Load(wqSitePostTail, kernel.Field(pipe, 1))
	if head-tail >= wqRingSize {
		return EAGAIN // ring full
	}
	bufs := trace.Addr(t.K.Mem.Read(kernel.Field(pipe, 2)))
	buf := kernel.Field(bufs, int(head%wqRingSize)*2)
	t.Store(wqSiteBufLen, kernel.Field(buf, 0), length) // #5: buf->len = len
	t.Store(wqSiteBufOps, kernel.Field(buf, 1), in.ops) // #6: buf->ops = &wq_pipe_ops
	if !in.bugs.Has("watchqueue:pipe_wmb") {
		t.Wmb(wqSitePostWmb) // #7: smp_wmb()
	}
	t.Store(wqSiteHeadInc, kernel.Field(pipe, 0), head+1) // #8: head += 1
	return EOK
}

// read is pipe_read(): the right column of Fig. 1.
func (in *wqInstance) pipeRead(t *kernel.Task, args []uint64) uint64 {
	pipe, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	defer t.Enter("pipe_read")()
	head := t.Load(wqSiteLoadHead, kernel.Field(pipe, 0)) // #14: if (head > tail)
	tail := t.Load(wqSiteLoadTail, kernel.Field(pipe, 1))
	if head == tail {
		return EAGAIN
	}
	if !in.bugs.Has("watchqueue:pipe_rmb") {
		t.Rmb(wqSiteReadRmb) // #15: smp_rmb()
	}
	bufs := trace.Addr(t.K.Mem.Read(kernel.Field(pipe, 2)))
	buf := kernel.Field(bufs, int(tail%wqRingSize)*2)
	length := t.Load(wqSiteLoadLen, kernel.Field(buf, 0)) // #17: len = buf->len
	ops := t.Load(wqSiteLoadOps, kernel.Field(buf, 1))    // #18: buf->ops...
	t.CallFn(wqSiteCallOps, ops, length)                  // #18: ...->confirm()
	t.Store(wqSiteTailInc, kernel.Field(pipe, 1), tail+1)
	return length
}

// setFilter is watch_queue_set_filter(): builds and publishes the
// subscription filter (the T3#2 publisher).
func (in *wqInstance) setFilter(t *kernel.Task, args []uint64) uint64 {
	pipe, ok := in.res.get(args[0])
	if !ok {
		return EBADF
	}
	nr := args[1]
	if nr == 0 || nr > 64 {
		return EINVAL
	}
	defer t.Enter("watch_queue_set_filter")()
	bm := t.Kzalloc(1)
	f := t.Kzalloc(2)
	var bits uint64 = 1<<nr - 1
	if nr == 64 {
		bits = ^uint64(0)
	}
	t.Store(wqSiteBmBits, kernel.Field(bm, 0), bits)       // bitmap[0] = bits
	t.Store(wqSiteFBitmap, kernel.Field(f, 0), uint64(bm)) // filter->bitmap = bm
	t.Store(wqSiteFNr, kernel.Field(f, 1), nr)             // filter->nr_bits = nr
	if !in.bugs.Has("watchqueue:post_wmb_bit") {
		t.Wmb(wqSiteFilterWmb)
	}
	t.WriteOnce(wqSitePubFilter, kernel.Field(pipe, 3), uint64(f))
	return EOK
}
