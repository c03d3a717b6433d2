// Package ozz is a from-scratch Go reproduction of OZZ (SOSP '24):
// "Identifying Kernel Out-of-Order Concurrency Bugs with In-Vivo Memory
// Access Reordering" — an out-of-order-execution emulator (OEMU), a
// deterministic scheduler, a simulated Linux-like kernel with the paper's
// bug corpus, and the OZZ fuzzer built on top of them.
//
// This root package is the public facade: it re-exports the pieces a
// downstream user composes —
//
//   - Pool / Config: the OZZ fuzzing loop (§4) — generate single-threaded
//     inputs, profile memory accesses and barriers, compute scheduling
//     hints by the hypothetical memory barrier test, execute multi-threaded
//     inputs under OEMU reordering directives, and collect crash reports
//     annotated with the missing-barrier location — on N workers,
//     deterministic in the campaign seed at any width;
//   - Env / MTIOpts: the execution environment for driving single tests
//     (a thin facade over internal/engine, the pluggable Strategy layer
//     every execution path — OZZ and all baselines — runs through);
//   - Bugs / AllBugs: the bug corpus switches (Table 3's 11 new bugs,
//     Table 4's 9 known bugs, the Fig. 10 Rust example).
//
// The harnesses regenerating every evaluation table live in internal/bench
// and run through cmd/ozz-bench. See the examples/ directory for runnable
// walkthroughs, DESIGN.md for the system inventory, and EXPERIMENTS.md for
// paper-vs-measured results.
package ozz

import (
	"ozz/internal/core"
	"ozz/internal/modules"
)

// Config parameterizes a fuzzing campaign (see core.Config).
type Config = core.Config

// Pool is the OZZ fuzzing loop: N workers over a shared environment,
// deterministic in the campaign seed at any worker count.
type Pool = core.Pool

// Env is an execution environment over the simulated kernel.
type Env = core.Env

// MTIOpts selects a concurrent pair and scheduling hint for one
// hypothetical-memory-barrier test.
type MTIOpts = core.MTIOpts

// BugInfo documents one corpus bug and its paper row.
type BugInfo = modules.BugInfo

// BugSet selects active bug switches (missing barriers).
type BugSet = modules.BugSet

// NewPool builds a campaign executor of the given width (workers <= 0
// selects GOMAXPROCS).
func NewPool(cfg Config, workers int) *Pool { return core.NewPool(cfg, workers) }

// NewEnv builds an execution environment for the named modules with the
// given bug switches.
func NewEnv(mods []string, bugs BugSet) *Env { return core.NewEnv(mods, bugs) }

// Bugs builds a BugSet from switch names, e.g.
// Bugs("watchqueue:pipe_wmb").
func Bugs(names ...string) BugSet { return modules.Bugs(names...) }

// AllBugs lists the whole corpus with its Table 3 / Table 4 metadata.
func AllBugs() []BugInfo { return modules.AllBugs() }
