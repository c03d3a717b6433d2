// Package sched implements the deterministic cooperative scheduler OZZ uses
// to control thread interleaving (§4.4.1, appendix §10.3). It plays the role
// of the paper's hypervisor-level custom scheduler: exactly one simulated
// vCPU runs at a time, scheduling points are instruction sites, and a
// breakpoint-style policy switches execution between tasks at a named
// instruction. Crucially — and unlike a real breakpoint — suspending a task
// does NOT flush its virtual store buffer, which is what lets OEMU keep
// memory-access reordering observable across an interleaving (§2.3).
//
// The scheduler is token-based: every task body runs on its own coroutine
// (a carrier, reused across sessions), and Session.Run is a trampoline that
// resumes the carrier of the task holding the run token. A task passes the
// token by naming its successor and yielding back to Run, so all
// simulated-kernel state is only ever touched by one goroutine at a time,
// and a token pass is a direct coroutine switch rather than a trip through
// the Go scheduler. Given the same policy and task bodies, execution is
// fully deterministic.
package sched

import (
	"fmt"
	"sync"

	"ozz/internal/trace"
)

// spinLimit bounds how many times a blocked (spin-waiting) task is resumed
// without acquiring what it waits for before the session declares a
// deadlock/livelock.
const spinLimit = 2000

// State is a task's scheduling state.
type State uint8

const (
	// Runnable tasks can be scheduled.
	Runnable State = iota
	// Blocked tasks are spin-waiting on a resource; they are scheduled
	// only when no non-blocked task is runnable.
	Blocked
	// Done tasks have finished (returned or unwound after an abort).
	Done
)

// Deadlock is the error value a session aborts with when every live task is
// blocked, or a task exceeds the spin limit.
type Deadlock struct {
	Reason string
}

// Error implements error.
func (d *Deadlock) Error() string { return "deadlock: " + d.Reason }

// abortUnwind is panicked inside suspended tasks to unwind their carriers
// once the session is aborting. It never escapes the package.
type abortUnwind struct{}

// Task is the scheduler-side handle of one simulated kernel task. Task
// bodies receive it and must call Yield at every instrumented operation.
type Task struct {
	ID  int
	CPU int

	state   State
	spin    int
	session *Session
	body    func(*Task)
	// carrier runs the body; attached when the task is first resumed and
	// detached when it is done.
	carrier *carrier

	// armed implements "switch after instruction X": when a breakpoint
	// with PosAfter matches, the policy arms the task and the switch
	// happens at its next yield.
	armedSwitch int // target task id, or -1
}

// Session runs one set of tasks to completion under a policy. A session
// runs once; simulated-kernel state (memory, OEMU threads) persists outside
// it, so an executor runs multiple sessions in sequence over the same
// kernel (e.g. sequential prefix calls, then the concurrent pair). Release
// hands a finished session back to NewSession's free list.
type Session struct {
	policy Policy
	// seq and bp are the devirtualized fast paths for the two policies on
	// the execution hot path, resolved once at construction: Sequential
	// never switches (Yield returns immediately), and a *Breakpoint is
	// called through its concrete type. Every instrumented memory access
	// passes through Yield, so the per-access interface dispatch is worth
	// eliminating.
	seq bool
	bp  *Breakpoint

	// tasks lists the tasks in spawn order, the default scheduling
	// preference. A session has a handful of tasks (at most four in the
	// engine), so lookups by id scan tasks (byID), the slice starts in an
	// inline buffer, and the first tasks live in inline slots.
	tasks   []*Task
	taskBuf [4]*Task
	slots   [4]Task

	// cur holds the run token: the task Run resumes next.
	cur      *Task
	aborting bool
	// Aborted carries the recovered panic value (e.g. a *kernel.Crash)
	// that aborted the session, if any.
	Aborted any

	started  bool
	yields   uint64
	switches uint64
}

// Policy decides where interleavings happen.
type Policy interface {
	// First returns the id of the task to run first, given the id of the
	// first-spawned task.
	First(spawned int) int
	// OnYield is consulted at every scheduling point, before the
	// operation at instr executes. Returning (id, true) switches to task
	// id (if it is live); (0, false) continues the current task.
	OnYield(cur *Task, instr trace.InstrID) (int, bool)
}

// maxFreeSessions bounds the free list: about the sessions a campaign has
// in flight at once (one per pool worker), with room to spare.
const maxFreeSessions = 64

// freeSessions holds released sessions, most recent last.
var freeSessions struct {
	mu sync.Mutex
	s  []*Session
}

// NewSession returns a session with the given policy, reusing a released
// one when the free list has any.
func NewSession(policy Policy) *Session {
	var s *Session
	freeSessions.mu.Lock()
	if n := len(freeSessions.s); n > 0 {
		s = freeSessions.s[n-1]
		freeSessions.s = freeSessions.s[:n-1]
	}
	freeSessions.mu.Unlock()
	if s == nil {
		s = new(Session)
	}
	s.policy = policy
	s.tasks = s.taskBuf[:0]
	switch p := policy.(type) {
	case Sequential:
		s.seq = true
	case *Breakpoint:
		s.bp = p
	}
	return s
}

// Spawn registers a task. Spawning is allowed both before Run and from a
// running task (fork); in the latter case the new task becomes runnable and
// is scheduled per policy.
func (s *Session) Spawn(id, cpu int, body func(*Task)) *Task {
	if s.byID(id) != nil {
		panic(fmt.Sprintf("sched: duplicate task id %d", id))
	}
	var t *Task
	if n := len(s.tasks); n < len(s.slots) {
		t = &s.slots[n]
	} else {
		t = new(Task)
	}
	t.ID, t.CPU, t.session, t.body, t.armedSwitch = id, cpu, s, body, -1
	s.tasks = append(s.tasks, t)
	return t
}

// byID returns the task with the given id, or nil if none was spawned.
func (s *Session) byID(id int) *Task {
	for _, t := range s.tasks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// run executes the task's body on its carrier, then passes the run token
// to the next live task (nil when none remain).
func (t *Task) run() {
	s := t.session
	defer func() {
		if r := recover(); r != nil {
			if _, unwind := r.(abortUnwind); !unwind {
				// First real failure aborts the session.
				if s.Aborted == nil {
					s.Aborted = r
				}
				s.aborting = true
			}
		}
		t.state = Done
		s.cur = s.pick()
	}()
	if s.aborting {
		panic(abortUnwind{})
	}
	t.body(t)
}

// Run executes all spawned tasks to completion and returns the panic value
// that aborted the session, or nil on clean completion.
func (s *Session) Run() any {
	if s.started {
		panic("sched: session reused")
	}
	s.started = true
	if len(s.tasks) == 0 {
		return nil
	}
	// Trampoline: resume the token holder's carrier until it yields back,
	// having passed the token on (handoff) or finished (run).
	if s.cur = s.byID(s.policy.First(s.tasks[0].ID)); s.cur == nil {
		panic("sched: the policy's first task was never spawned")
	}
	for t := s.cur; t != nil; t = s.cur {
		if t.carrier == nil {
			t.carrier = getCarrier(t)
		}
		t.carrier.resume()
		if t.state == Done {
			putCarrier(t.carrier)
			t.carrier = nil
		}
	}
	return s.Aborted
}

// Release returns a session to NewSession's free list. Call it only once
// Run has returned (or when Run will never be called), after the last read
// of the session or its tasks; neither may be used afterwards.
func (s *Session) Release() {
	*s = Session{}
	freeSessions.mu.Lock()
	if len(freeSessions.s) < maxFreeSessions {
		freeSessions.s = append(freeSessions.s, s)
	}
	freeSessions.mu.Unlock()
}

// Yields returns the number of scheduling points hit (diagnostics).
func (s *Session) Yields() uint64 { return s.yields }

// Switches returns the number of preemptions: scheduling points where the
// run token actually moved to a different task (a subset of Yields).
// Deterministic for a given (program, hint, seed).
func (s *Session) Switches() uint64 { return s.switches }

// handoff transfers the run token from the calling task to target and
// suspends the caller until rescheduled (or unwinds it if the session
// aborted).
func (s *Session) handoff(from, to *Task) {
	s.switches++
	s.cur = to
	from.carrier.yield(struct{}{})
	if s.aborting {
		panic(abortUnwind{})
	}
}

// pick returns the next task to resume: the first live non-blocked task in
// spawn order, else the first blocked one (spin retry), else nil.
func (s *Session) pick() *Task {
	var blocked *Task
	for _, t := range s.tasks {
		switch t.state {
		case Runnable:
			return t
		case Blocked:
			if blocked == nil {
				blocked = t
			}
		}
	}
	return blocked
}

// Yield is the scheduling point, invoked before every instrumented
// operation. The policy may switch execution to another task here; a
// PosAfter breakpoint that matched at the previous yield also fires here.
func (t *Task) Yield(instr trace.InstrID) {
	s := t.session
	s.yields++
	if s.aborting {
		panic(abortUnwind{})
	}
	// Sequential sessions never switch and never arm: done.
	if s.seq && t.armedSwitch < 0 {
		return
	}
	// A pending "switch after previous instruction" fires first.
	if t.armedSwitch >= 0 {
		target := s.byID(t.armedSwitch)
		t.armedSwitch = -1
		if target != nil && target.state != Done && target != t {
			s.handoff(t, target)
			return
		}
	}
	var id int
	var doSwitch bool
	if s.bp != nil {
		id, doSwitch = s.bp.OnYield(t, instr)
	} else {
		id, doSwitch = s.policy.OnYield(t, instr)
	}
	if !doSwitch {
		return
	}
	target := s.byID(id)
	if target == nil || target.state == Done || target == t {
		return
	}
	s.handoff(t, target)
}

// ArmSwitchAfter schedules a switch to task id at this task's next yield
// (used by policies to implement "interleave right after instruction X").
func (t *Task) ArmSwitchAfter(id int) { t.armedSwitch = id }

// BlockSpin marks the task as spin-waiting and yields to another task. The
// caller retries its operation when resumed. Exceeding the spin limit, or
// having nobody else to run, aborts the session with a Deadlock.
func (t *Task) BlockSpin() {
	s := t.session
	if s.aborting {
		panic(abortUnwind{})
	}
	t.spin++
	if t.spin > spinLimit {
		s.Aborted = &Deadlock{Reason: fmt.Sprintf("task %d exceeded spin limit", t.ID)}
		s.aborting = true
		panic(abortUnwind{})
	}
	t.state = Blocked
	target := s.pickOther(t)
	if target == nil {
		// Everyone else is done and we cannot make progress.
		s.Aborted = &Deadlock{Reason: fmt.Sprintf("task %d blocked with no runnable peer", t.ID)}
		s.aborting = true
		panic(abortUnwind{})
	}
	s.handoff(t, target)
	t.state = Runnable
}

// ClearSpin resets the spin counter after successful progress (e.g. a lock
// was finally acquired).
func (t *Task) ClearSpin() { t.spin = 0 }

// Peers returns the number of live tasks other than t — callers that want
// to stall voluntarily (e.g. a watchpoint detector) check this first to
// avoid a vacuous deadlock.
func (t *Task) Peers() int {
	n := 0
	for _, o := range t.session.tasks {
		if o != t && o.state != Done {
			n++
		}
	}
	return n
}

// pickOther returns the preferred live task other than t: first non-blocked
// in spawn order, else first blocked.
func (s *Session) pickOther(t *Task) *Task {
	var blocked *Task
	for _, o := range s.tasks {
		if o == t || o.state == Done {
			continue
		}
		if o.state == Runnable {
			return o
		}
		if blocked == nil {
			blocked = o
		}
	}
	return blocked
}

// Migrate moves the task to another simulated CPU. Migration does not flush
// any OEMU store buffer and does not interact with the scheduler beyond
// changing where per-CPU addresses resolve — exactly like a real kernel
// migration observed from the migrated task. The paper's OZZ pins its
// threads and cannot do this (§6.2, Table 4 #6); here the MigrateAt policy
// performs the move at scheduling points, which is what the engine's
// Migration strategy is built on.
func (t *Task) Migrate(cpu int) { t.CPU = cpu }
