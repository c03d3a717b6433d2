package sched

import "ozz/internal/trace"

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
