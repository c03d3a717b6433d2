// Package sched implements the deterministic cooperative scheduler OZZ uses
// to control thread interleaving (§4.4.1, appendix §10.3). It plays the role
// of the paper's hypervisor-level custom scheduler: exactly one simulated
// vCPU runs at a time, scheduling points are instruction sites, and a
// breakpoint-style policy switches execution between tasks at a named
// instruction. Crucially — and unlike a real breakpoint — suspending a task
// does NOT flush its virtual store buffer, which is what lets OEMU keep
// memory-access reordering observable across an interleaving (§2.3).
//
// The scheduler is token-based: every task body that may be suspended runs
// on its own coroutine (a carrier, which the session keeps for its later
// runs), and Session.Run is a trampoline that resumes the carrier of the
// task holding the run token. A task passes the token by naming its
// successor and yielding back to Run, so all simulated-kernel state is
// only ever touched by one goroutine at a time, and a token pass is a
// direct coroutine switch rather than a trip through the Go scheduler. A
// Sequential session with a single task has nobody to pass the token to,
// so Run calls that task's body on its own goroutine and starts no
// carrier. Given the same policy and task bodies, execution is fully
// deterministic.
package sched

import (
	"fmt"

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
	// detached when it is done. A task Run calls inline has none.
	carrier *carrier
	// slot is the index of the task's inline slot in its session, or -1
	// for a task spawned past the slots.
	slot int

	// armed implements "switch after instruction X": when a breakpoint
	// with PosAfter matches, the policy arms the task and the switch
	// happens at its next yield.
	armedSwitch int // target task id, or -1
}

// Session runs one set of tasks to completion under a policy.
// Simulated-kernel state (memory, OEMU threads) persists outside it, so an
// executor runs multiple sessions in sequence over the same kernel (e.g.
// sequential prefix calls, then the concurrent pair). Reset readies a
// finished session for another run, and the session keeps the carriers of
// its task slots across runs until Close stops them; a single-task
// Sequential run starts none. A session belongs to one owner at a time
// (the engine's runners each keep theirs), so reusing it takes no lock.
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
	// carriers holds the carriers of the task slots, started when a
	// slot's task is first resumed and kept across Reset until Close.
	carriers [4]*carrier

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

// NewSession returns a session with the given policy. Its owner closes it
// once done with it, which stops the carriers it keeps.
func NewSession(policy Policy) *Session {
	s := new(Session)
	s.Reset(policy)
	return s
}

// Reset readies the session to run again under policy, with no tasks and
// no trace of its previous run, keeping its slots' carriers. Call it only
// once Run has returned (or when Run will never be called), after the
// last read of the session or its tasks.
func (s *Session) Reset(policy Policy) {
	*s = Session{carriers: s.carriers, policy: policy}
	s.tasks = s.taskBuf[:0]
	switch p := policy.(type) {
	case Sequential:
		s.seq = true
	case *Breakpoint:
		s.bp = p
	}
}

// Close stops the carriers the session keeps. Call it only once Run has
// returned (or when Run will never be called). A closed session may be
// Reset and run again, which starts new carriers.
func (s *Session) Close() {
	for i, c := range s.carriers {
		if c != nil {
			c.stop()
			s.carriers[i] = nil
		}
	}
}

// Spawn registers a task. Spawning is allowed both before Run and from a
// running task (fork); in the latter case the new task becomes runnable and
// is scheduled per policy.
func (s *Session) Spawn(id, cpu int, body func(*Task)) *Task {
	if s.byID(id) != nil {
		panic(fmt.Sprintf("sched: duplicate task id %d", id))
	}
	var t *Task
	slot := len(s.tasks)
	if slot < len(s.slots) {
		t = &s.slots[slot]
	} else {
		t, slot = new(Task), -1
	}
	t.ID, t.CPU, t.session, t.body, t.armedSwitch, t.slot = id, cpu, s, body, -1, slot
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

// run executes the task's body, on its carrier or inline, then passes the
// run token to the next live task (nil when none remain).
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
//
// A Sequential session whose only task was spawned before Run runs that
// task on the caller's goroutine: it never switches, so it needs no
// carrier. Tasks it spawns run on carriers once it returns; a switch it
// asks for meanwhile (a BlockSpin that finds such a task live, say)
// cannot suspend it, and aborts the session with a "sched:" panic value.
func (s *Session) Run() any {
	if s.started {
		panic("sched: session reused")
	}
	s.started = true
	if len(s.tasks) == 0 {
		return nil
	}
	if s.cur = s.byID(s.policy.First(s.tasks[0].ID)); s.cur == nil {
		panic("sched: the policy's first task was never spawned")
	}
	if s.seq && len(s.tasks) == 1 {
		s.cur.run()
	}
	// Trampoline: resume the token holder's carrier until it yields back,
	// having passed the token on (handoff) or finished (run).
	for t := s.cur; t != nil; t = s.cur {
		c := t.carrier
		if c == nil {
			c = s.attach(t)
		}
		c.resume()
		if t.state == Done {
			t.carrier = nil
			if t.slot < 0 {
				c.stop()
			}
		}
	}
	return s.Aborted
}

// attach gives t the carrier to run on: its slot's, started on first use
// and kept for the session's later runs, or, for a task spawned past the
// slots, one of its own, which Run stops once the task is done.
func (s *Session) attach(t *Task) *carrier {
	var c *carrier
	if t.slot < 0 {
		c = newCarrier()
	} else {
		if s.carriers[t.slot] == nil {
			s.carriers[t.slot] = newCarrier()
		}
		c = s.carriers[t.slot]
	}
	c.task, t.carrier = t, c
	return c
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
	if from.carrier == nil {
		panic(fmt.Sprintf("sched: task %d runs inline on Run's caller and cannot switch to task %d", from.ID, to.ID))
	}
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
// migration-aware OOO strategy is built on.
func (t *Task) Migrate(cpu int) { t.CPU = cpu }
