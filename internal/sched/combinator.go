package sched

import (
	"ozz/internal/trace"
)

// Predicate is a scheduling-point condition: it is consulted with the task
// that reached the scheduling point and the instruction about to execute,
// and reports whether a guarded policy should be allowed to act. Predicates
// are the programmable-scheduling layer (eBPF-style "switch when this
// condition holds"): new migration/deferral scenarios compose predicates
// with existing policies instead of adding new policy types. A Predicate
// may be stateful (e.g. an occurrence counter); construct a fresh one per
// session.
type Predicate func(cur *Task, instr trace.InstrID) bool

// OnNthOccurrence returns a stateful predicate that holds exactly from the
// n-th time (counting from 1; n <= 0 means 1) instruction instr reaches a
// scheduling point, on any task. It is the predicate form of Breakpoint's
// occurrence matching.
func OnNthOccurrence(instr trace.InstrID, n int) Predicate {
	if n <= 0 {
		n = 1
	}
	seen := 0
	return func(_ *Task, at trace.InstrID) bool {
		if seen >= n {
			return true
		}
		if at != instr {
			return false
		}
		seen++
		return seen >= n
	}
}

// OnTaskCPU returns a predicate that holds while task id is on simulated
// CPU cpu. A task that was never spawned never satisfies it.
func OnTaskCPU(id, cpu int) Predicate {
	return func(cur *Task, _ trace.InstrID) bool {
		t := cur.session.byID(id)
		return t != nil && t.CPU == cpu
	}
}

// OnTask returns a predicate that holds when the task at the scheduling
// point is task id.
func OnTask(id int) Predicate {
	return func(cur *Task, _ trace.InstrID) bool { return cur.ID == id }
}

// And returns the conjunction of the given predicates. With no operands it
// always holds.
func And(ps ...Predicate) Predicate {
	return func(cur *Task, instr trace.InstrID) bool {
		for _, p := range ps {
			if !p(cur, instr) {
				return false
			}
		}
		return true
	}
}

// Or returns the disjunction of the given predicates. With no operands it
// never holds.
func Or(ps ...Predicate) Predicate {
	return func(cur *Task, instr trace.InstrID) bool {
		for _, p := range ps {
			if p(cur, instr) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate {
	return func(cur *Task, instr trace.InstrID) bool { return !p(cur, instr) }
}

// Guarded consults Inner only at scheduling points where When holds; at all
// other points the current task continues. It turns any policy into a
// conditional one ("preempt randomly, but only once instr X has executed",
// "switch only while task 2 is on CPU 0") without touching the policy
// itself. The dispatch path allocates nothing: the predicate and the inner
// policy are constructed once, per session.
type Guarded struct {
	Inner Policy
	When  Predicate
}

// First delegates to the inner policy.
func (g *Guarded) First(spawned int) int { return g.Inner.First(spawned) }

// OnYield consults the guard, then the inner policy.
func (g *Guarded) OnYield(cur *Task, instr trace.InstrID) (int, bool) {
	if !g.When(cur, instr) {
		return 0, false
	}
	return g.Inner.OnYield(cur, instr)
}

// MigrateAt performs a real cross-CPU move at the scheduling point where the
// inner policy acts: whenever Inner switches tasks (or arms a PosAfter
// switch), the task with id Task is moved to CPU ToCPU via Task.Migrate.
// The move deliberately does NOT flush any OEMU store buffer — a migration
// suspends and resumes the task exactly like any other preemption in this
// scheduler — so stores delayed by a hypothetical-barrier test stay delayed
// across the move, and per-CPU addresses resolved after it (Task.CPU feeds
// kernel per-CPU address resolution) land on the new CPU's slot. This is
// what lets the sbitmap bug (Table 4 #6, §6.2) reproduce organically
// instead of via the retired manual assist.
type MigrateAt struct {
	// Inner is the policy whose switch decision triggers the migration
	// (typically a *Breakpoint carrying a scheduling hint).
	Inner Policy
	// Task is the id of the task to migrate.
	Task int
	// ToCPU is the destination simulated CPU.
	ToCPU int

	// Migrations counts moves actually performed (a move to the CPU the
	// task is already on is not counted and not performed).
	Migrations int
}

// First delegates to the inner policy.
func (m *MigrateAt) First(spawned int) int { return m.Inner.First(spawned) }

// OnYield delegates to the inner policy and migrates when it acts. The
// migration happens before control transfers, so the migrated task observes
// its new CPU the next time it runs.
func (m *MigrateAt) OnYield(cur *Task, instr trace.InstrID) (int, bool) {
	wasArmed := cur.armedSwitch >= 0
	id, doSwitch := m.Inner.OnYield(cur, instr)
	if doSwitch || (!wasArmed && cur.armedSwitch >= 0) {
		if t := cur.session.byID(m.Task); t != nil && t.CPU != m.ToCPU {
			t.Migrate(m.ToCPU)
			m.Migrations++
		}
	}
	return id, doSwitch
}

// Session returns the session the task belongs to. Strategies use it to
// spawn deferred-work tasks (softirq/workqueue handlers) into the running
// session from a policy hook.
func (t *Task) Session() *Session { return t.session }
