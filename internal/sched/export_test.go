package sched

import "ozz/internal/trace"

// OnTaskCPU returns a predicate that holds while task id is on simulated
// CPU cpu. A task that was never spawned never satisfies it.
func OnTaskCPU(id, cpu int) Predicate {
	return func(cur *Task, _ trace.InstrID) bool {
		t := cur.session.byID(id)
		return t != nil && t.CPU == cpu
	}
}
