// Quickstart: drive OEMU's two mechanisms by hand — the delayed store
// operation of Fig. 3 and the versioned load operation of Fig. 4 — then run
// one end-to-end hypothetical-memory-barrier test through the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"ozz/internal/hints"
	"ozz/internal/kmem"
	"ozz/internal/modules"
	"ozz/internal/oemu"
	"ozz/internal/trace"

	ozz "ozz"
)

func fig3DelayedStore() {
	fmt.Println("== Fig. 3: delayed store operation ==")
	mem := kmem.New()
	mem.Sanitize = false
	em := oemu.New(mem)
	writer := em.NewThread()
	observer := em.NewThread()

	const X, Y = trace.Addr(0x1000_0000), trace.Addr(0x1000_0008)
	// delay_store_at(I1): instruction site 1's store is held in the
	// virtual store buffer.
	writer.Dir.DelayStoreAt(1)
	writer.Store(1, X, 1, trace.Plain) // I1: *X = 1 (delayed)
	writer.Store(2, Y, 2, trace.Plain) // I2: *Y = 2 (commits)
	fmt.Printf("after I1, I2:  memory X=%d Y=%d (store to X still in the buffer)\n",
		mem.Read(X), mem.Read(Y))
	fmt.Printf("observer sees: X=%d Y=%d  <- store-store reordering!\n",
		observer.Load(3, X, trace.Plain), observer.Load(4, Y, trace.Plain))
	fmt.Printf("writer itself: X=%d (store-to-load forwarding from the buffer)\n",
		writer.Load(5, X, trace.Plain))
	writer.Barrier(trace.BarrierStore) // smp_wmb(): the buffer drains
	fmt.Printf("after smp_wmb: memory X=%d Y=%d\n\n", mem.Read(X), mem.Read(Y))
}

func fig4VersionedLoad() {
	fmt.Println("== Fig. 4: versioned load operation ==")
	mem := kmem.New()
	mem.Sanitize = false
	em := oemu.New(mem)
	reader := em.NewThread()
	writer := em.NewThread()

	const W, Z = trace.Addr(0x1000_0000), trace.Addr(0x1000_0008)
	writer.Store(10, W, 1, trace.Plain) // before the window
	reader.Barrier(trace.BarrierLoad)   // t3: smp_rmb — versioning window opens
	writer.Store(11, Z, 1, trace.Plain) // t4
	writer.Store(12, W, 2, trace.Plain) // t5

	// read_old_value_at(I2): site 2's load reads from the store history.
	reader.Dir.ReadOldValueAt(2)
	r1 := reader.Load(1, W, trace.Plain) // default: the updated value
	r2 := reader.Load(2, Z, trace.Plain) // versioned: the old value
	fmt.Printf("r1=%d (updated W), r2=%d (old Z)  <- load-load reordering!\n\n", r1, r2)
}

func hypotheticalBarrierTest() {
	fmt.Println("== Hypothetical store barrier test on the Fig. 1 bug ==")
	// The watchqueue module with the poster's smp_wmb removed (the bug).
	env := ozz.NewEnv([]string{"watchqueue"}, ozz.Bugs("watchqueue:pipe_wmb"))
	target := modules.Target("watchqueue")
	p, err := target.Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n")
	if err != nil {
		panic(err)
	}
	// Phase 1: profile the single-threaded run (§4.2).
	sti := env.RunSTI(p)
	fmt.Printf("profiled %d / %d events for post / read\n",
		len(sti.CallEvents[1]), len(sti.CallEvents[2]))
	// Phase 2: Algorithm 1 computes scheduling hints.
	hs := hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
	fmt.Printf("computed %d scheduling hints; trying them by heuristic rank:\n", len(hs))
	// Phase 3: run the multi-threaded inputs.
	for rank, h := range hs {
		res := env.RunMTI(ozz.MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
		if res.Crash != nil {
			fmt.Printf("rank %d hint crashed the kernel: %s\n", rank+1, res.Crash.Title)
			fmt.Printf("  missing barrier at: before %s\n", modules.SiteName(h.Sched))
			for _, s := range h.Reorder {
				fmt.Printf("  reordered: %s\n", modules.SiteName(s))
			}
			return
		}
	}
	fmt.Println("no crash (unexpected)")
}

func main() {
	fig3DelayedStore()
	fig4VersionedLoad()
	hypotheticalBarrierTest()
}
