package engine

import (
	"ozz/internal/memmodel"
	"ozz/internal/modules"
)

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
	// kernel without OEMU — the syzkaller baseline's configuration. An
	// engine kernel always keeps KASAN/KCov (a syzkaller kernel still has
	// sanitizers).
	Instrumented bool
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
