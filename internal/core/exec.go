// Package core implements OZZ itself (§4): the workflow that generates
// single-threaded inputs, profiles their memory accesses and barriers,
// computes scheduling hints by the hypothetical memory barrier test, and
// executes multi-threaded inputs under the deterministic scheduler with
// OEMU reordering directives, watching the kernel's bug oracles.
//
// Execution itself lives in internal/engine; this package drives the
// engine with the OOO strategy and layers the fuzzing workflow (hint
// search, corpus, triage, reports) on top.
package core

import (
	"fmt"

	"ozz/internal/engine"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// Env is the execution environment: which modules are loaded and which bug
// switches are active, driving the shared engine with OZZ's OOO strategy.
// Every run is instrumented (OEMU on every access); the uninstrumented
// kernel is the syzkaller baseline's (internal/baseline/inorder).
// Every execution runs on a fresh or Reset kernel, so runs are
// independent and deterministic. An Env is safe for concurrent use by
// multiple executor goroutines once configured: the configuration fields
// are read-only during execution, and every run takes a kernel of its
// own from the engine. A pool worker runs on its own copy of the Env,
// bound to an engine worker that holds one kernel across the worker's
// runs.
type Env struct {
	// Modules lists the loaded modules (empty = all registered).
	Modules []string
	// Bugs holds the active bug switches (missing barriers).
	Bugs modules.BugSet
	// Model is the memory model OEMU emulates (nil = memmodel.LKMM).
	// STI profiles are model-independent (no directives, in-order
	// execution), but hint generation and MTI directives are
	// model-relative — the fuzzer must pair this Env with
	// hints.CalculateModel over the same model.
	Model *memmodel.Table
	// Strategy is the engine strategy MTI runs execute under (nil = the
	// default engine.OOO). STI profiling always runs the plain sequential
	// path regardless of this field, so a profile is a pure function of
	// the program.
	Strategy engine.Strategy

	eng *engine.Engine
	// w, when non-nil, runs every execution of this Env: a pool worker's
	// copy sets it to the worker's engine worker.
	w *engine.Worker
}

// NewEnv returns an instrumented environment over a fresh engine with a
// private metrics registry. Equivalent to NewEnvObs(mods, bugs, nil).
func NewEnv(mods []string, bugs modules.BugSet) *Env {
	return NewEnvObs(mods, bugs, nil)
}

// NewEnvObs returns an instrumented environment whose engine publishes
// lifecycle metrics into reg (nil = a fresh private registry).
func NewEnvObs(mods []string, bugs modules.BugSet, reg *obs.Registry) *Env {
	return &Env{Modules: mods, Bugs: bugs, eng: engine.NewObs(reg)}
}

// Obs returns the metrics registry the environment's engine publishes
// into.
func (e *Env) Obs() *obs.Registry { return e.eng.Obs() }

// config snapshots the environment's mutable fields into an engine
// config. Built per call so post-construction field writes (tests, the
// campaign's model) never race with in-flight executions.
func (e *Env) config() engine.Config {
	return engine.Config{
		Modules:      e.Modules,
		Bugs:         e.Bugs,
		Instrumented: true,
		Model:        e.Model,
	}
}

// STIResult is the outcome of a single-threaded (profiling) execution.
type STIResult = engine.Result

// MTIResult is the outcome of one hypothetical-memory-barrier test run.
type MTIResult = engine.Result

// MTIOpts selects the concurrent pair and the scheduling hint of one
// multi-threaded input (§4.4).
type MTIOpts = engine.Request

// Finding is a report's reproducer: the multi-threaded input that
// produced it and its title. Triage, the cross-model probe, fence repair
// and Minimize re-run it through Finding.Request and judge each run with
// Finding.Reproduced.
type Finding = engine.Finding

// RunSTI executes the program sequentially on one task, profiling each
// call's memory accesses and barriers — OZZ's first workflow step. The
// result owns its profile.
func (e *Env) RunSTI(p *syzlang.Program) *STIResult {
	return e.runSTI(p, new(trace.Buffer), nil)
}

// runSTI is RunSTI profiling into prof and writing into out (nil: a
// fresh result): the result's CallEvents are views into prof, valid
// until prof is next used, and out is valid until it is next used.
func (e *Env) runSTI(p *syzlang.Program, prof *trace.Buffer, out *STIResult) *STIResult {
	return e.run(e.config(), engine.OOO{}, engine.Request{Prog: p, Prof: prof, Out: out})
}

// run executes one request on the Env's engine worker, or on the engine.
func (e *Env) run(cfg engine.Config, s engine.Strategy, req engine.Request) *engine.Result {
	if e.w != nil {
		return e.w.Run(cfg, s, req)
	}
	return e.eng.Run(cfg, s, req)
}

// mtiStrategy resolves the strategy MTI runs execute under.
func (e *Env) mtiStrategy() engine.Strategy {
	if e.Strategy != nil {
		return e.Strategy
	}
	return engine.OOO{}
}

// RunMTI executes one multi-threaded input: the program's calls before J
// (except I) run sequentially to build kernel state; then calls I and J run
// concurrently on two CPUs under the hint's breakpoint policy with the
// hint's OEMU directives installed (Fig. 5), all under the environment's
// strategy (default OOO).
func (e *Env) RunMTI(o MTIOpts) *MTIResult {
	return e.run(e.config(), e.mtiStrategy(), o)
}

// RunMTIUnder is RunMTI with the environment's memory model overridden
// for this one execution — the fuzzer's cross-model probe re-runs a
// crashing MTI under every other registered model to report which of
// them can reach the reordering ("reorders under: lkmm, armv8").
func (e *Env) RunMTIUnder(o MTIOpts, mm *memmodel.Table) *MTIResult {
	cfg := e.config()
	cfg.Model = mm
	return e.run(cfg, e.mtiStrategy(), o)
}

// PairName renders a concurrent pair for reports.
func PairName(p *syzlang.Program, i, j int) [2]string {
	return [2]string{
		fmt.Sprintf("call %d: %s", i, p.Calls[i].Def.Name),
		fmt.Sprintf("call %d: %s", j, p.Calls[j].Def.Name),
	}
}
