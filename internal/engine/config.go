package engine

import (
	"ozz/internal/memmodel"
	"ozz/internal/modules"
)

// DefaultNrCPU is the simulated CPU count of every kernel the engine
// builds — the paper's 4-vCPU test VMs.
const DefaultNrCPU = 4

// Config describes the execution environment of one run: which modules
// are built over the kernel, which bug switches (missing barriers) are
// active, and which kernel features are enabled. A Config is passed by
// value per Run call, so concurrent runs with different configurations
// never race on shared state.
type Config struct {
	// Modules lists the loaded modules (empty = all registered).
	Modules []string
	// Bugs holds the active bug switches (missing barriers).
	Bugs modules.BugSet
	// Instrumented selects the OEMU path: every access is a callback
	// (profiling, reordering directives, scheduling points). False is a
	// plain kernel — the syzkaller baseline's configuration.
	Instrumented bool
	// Sanitizers keeps KASAN/KCov active when Instrumented is false (a
	// syzkaller kernel still has sanitizers). Ignored when Instrumented.
	Sanitizers bool
	// InterruptOnSwitch injects an interrupt on the reorderer's CPU at
	// the scheduling point of every pair run. Interrupts drain the
	// virtual store buffer (§3.1), so store-barrier tests become vacuous
	// — the ablation demonstrating why OZZ's custom scheduler must
	// suspend vCPUs WITHOUT delivering interrupts.
	InterruptOnSwitch bool
	// Model is the memory model OEMU emulates for the run; nil selects
	// memmodel.LKMM (the paper's default). Directives act per model (a
	// model with no versionable loads makes ReadOldValueAt inert), and
	// hint generation for the run's profiles must use the same model
	// (hints.CalculateModel).
	Model *memmodel.Table
}

// normalize resolves defaulted fields.
func (c *Config) normalize() {
	if c.Model == nil {
		c.Model = memmodel.LKMM
	}
}
