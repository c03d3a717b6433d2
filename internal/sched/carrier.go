//go:build go1.23

package sched

import (
	"iter"
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

// carriersStarted counts carriers ever started; tests bound it to check
// that sessions reuse their carriers.
var carriersStarted atomic.Uint64

// newCarrier starts a carrier. It runs the task it is attached to each
// time it is resumed at rest, until stopped.
func newCarrier() *carrier {
	carriersStarted.Add(1)
	c := new(carrier)
	c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.task.run()
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}
