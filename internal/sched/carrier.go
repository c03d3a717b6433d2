//go:build go1.23

package sched

import (
	"iter"
	"sync"
	"sync/atomic"
)

// carrier runs task bodies on a coroutine. Resuming a carrier and yielding
// from it are direct goroutine switches: neither goes through the Go
// scheduler's run queues, so passing the run token costs no wakeup. A
// carrier runs one task at a time, start to finish, and then the next task
// attached to it, so the stack it grew inside module code is kept for the
// next task instead of being grown again from 2 KB for every task.
type carrier struct {
	resume func() (struct{}, bool)
	stop   func()
	// yield suspends the carrier and returns control to the resume call
	// (the session driver).
	yield func(struct{}) bool
	// task is the task the carrier runs when next resumed at rest.
	task *Task
}

// maxIdleCarriers bounds the idle carriers kept for reuse. A campaign needs
// about as many as it runs tasks at once (a few per pool worker); carriers
// released past the cap are stopped instead.
const maxIdleCarriers = 64

var (
	// freeCarriers holds idle carriers, most recent last. Any goroutine
	// may resume a carrier it takes from here.
	freeCarriers struct {
		mu sync.Mutex
		c  []*carrier
	}
	// carriersStarted counts carriers ever started; tests bound it to
	// check that carriers are reused.
	carriersStarted atomic.Uint64
)

// getCarrier returns an idle carrier, or a new one, set to run t.
func getCarrier(t *Task) *carrier {
	var c *carrier
	freeCarriers.mu.Lock()
	if n := len(freeCarriers.c); n > 0 {
		c = freeCarriers.c[n-1]
		freeCarriers.c = freeCarriers.c[:n-1]
	}
	freeCarriers.mu.Unlock()
	if c == nil {
		carriersStarted.Add(1)
		c = new(carrier)
		c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				c.task.run()
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
	c.task = t
	return c
}

// putCarrier returns a carrier whose task has finished to the idle list,
// or stops it when the list is full. Only the driver that resumed it may
// call this, after the resume returned.
func putCarrier(c *carrier) {
	c.task = nil
	freeCarriers.mu.Lock()
	if len(freeCarriers.c) < maxIdleCarriers {
		freeCarriers.c = append(freeCarriers.c, c)
		c = nil
	}
	freeCarriers.mu.Unlock()
	if c != nil {
		c.stop()
	}
}
