// Package inorder implements the two baselines OZZ is measured against:
//
//   - Syzkaller: a conventional single-threaded fuzzer over the
//     UNinstrumented kernel — the throughput baseline of §6.3.2 (the paper
//     measures 7.33 tests/s for syzkaller vs 0.92 tests/s for OZZ, a 7.9x
//     drop bought for the ability to control out-of-order execution).
//
//   - Interleaver: a concurrency fuzzer that controls thread interleaving
//     only (Snowboard/Razzer-style: random schedules, in-order memory).
//     It finds ordinary atomicity races but CANNOT observe memory-access
//     reordering, so OOO bugs stay invisible to it (§2.3) — every memory
//     access commits in order regardless of the schedule.
//
// Both are thin strategies over the shared execution engine
// (internal/engine): the kernel lifecycle, pooling/recycling, task
// spawning, and crash recovery are the engine's — only the scheduling
// policy differs.
package inorder

import (
	"math/rand"

	"ozz/internal/core"
	"ozz/internal/engine"
	"ozz/internal/kernel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// Syzkaller is the conventional-fuzzer baseline.
type Syzkaller struct {
	Modules []string
	Bugs    modules.BugSet
	Seed    int64

	target *syzlang.Target
	rng    *rand.Rand
	eng    *engine.Engine

	Reports *report.Set
	// Execs counts executed programs (the throughput unit).
	Execs uint64
}

// NewSyzkaller builds the baseline fuzzer with a private metrics
// registry. Equivalent to NewSyzkallerObs(mods, bugs, seed, nil).
func NewSyzkaller(mods []string, bugs modules.BugSet, seed int64) *Syzkaller {
	return NewSyzkallerObs(mods, bugs, seed, nil)
}

// NewSyzkallerObs builds the baseline fuzzer publishing engine lifecycle
// metrics into reg (nil = a fresh private registry), so a campaign can
// scrape OZZ and the baseline from one endpoint.
func NewSyzkallerObs(mods []string, bugs modules.BugSet, seed int64, reg *obs.Registry) *Syzkaller {
	return &Syzkaller{
		Modules: mods,
		Bugs:    bugs,
		Seed:    seed,
		target:  modules.Target(mods...),
		rng:     rand.New(rand.NewSource(seed)),
		eng:     engine.NewObs(reg),
		Reports: report.NewSet(),
	}
}

// Obs returns the registry the baseline's engine publishes into.
func (s *Syzkaller) Obs() *obs.Registry { return s.eng.Obs() }

// Step generates and executes one program sequentially on an
// uninstrumented kernel (no OEMU, no profiling — syzkaller's kernel). The
// program has the campaign's length, core.ProgLen, so both sides of the
// §6.3.2 throughput comparison run programs of one length.
func (s *Syzkaller) Step() {
	p := s.target.Generate(s.rng, core.ProgLen)
	s.Exec(p)
}

// Exec runs one program and records crashes.
func (s *Syzkaller) Exec(p *syzlang.Program) {
	cfg := engine.Config{
		Modules:    s.Modules,
		Bugs:       s.Bugs,
		Sanitizers: true, // a syzkaller kernel still has KASAN + KCov
	}
	res := s.eng.Run(cfg, engine.Sequential{}, engine.Request{Prog: p})
	if res.Crash != nil {
		s.Reports.Add(&report.Report{Title: res.Crash.Title, Oracle: res.Crash.Oracle, Program: p.String()})
	}
	s.Execs++
}

// KernelCounters reports pooled-kernel reuse: acquisitions recycled from
// the engine's pool vs. built fresh.
func (s *Syzkaller) KernelCounters() (recycled, built uint64) {
	return s.eng.KernelCounters()
}

// RecycleRate is the fraction of executions that reused a pooled kernel —
// the same reuse metric core.Env campaigns report.
func (s *Syzkaller) RecycleRate() float64 { return s.eng.RecycleRate() }

// Interleaver is the interleaving-only concurrency fuzzer baseline.
type Interleaver struct {
	Modules []string
	Bugs    modules.BugSet
	Seed    int64

	target *syzlang.Target
	rng    *rand.Rand
	eng    *engine.Engine

	Reports *report.Set
	Execs   uint64
}

// NewInterleaver builds the interleaving-only baseline with a private
// metrics registry. Equivalent to NewInterleaverObs(mods, bugs, seed, nil).
func NewInterleaver(mods []string, bugs modules.BugSet, seed int64) *Interleaver {
	return NewInterleaverObs(mods, bugs, seed, nil)
}

// NewInterleaverObs builds the interleaving-only baseline publishing
// engine lifecycle metrics into reg (nil = a fresh private registry).
func NewInterleaverObs(mods []string, bugs modules.BugSet, seed int64, reg *obs.Registry) *Interleaver {
	return &Interleaver{
		Modules: mods,
		Bugs:    bugs,
		Seed:    seed,
		target:  modules.Target(mods...),
		rng:     rand.New(rand.NewSource(seed)),
		eng:     engine.NewObs(reg),
		Reports: report.NewSet(),
	}
}

// Obs returns the registry the baseline's engine publishes into.
func (iv *Interleaver) Obs() *obs.Registry { return iv.eng.Obs() }

// ExecPair runs the program with calls i and j concurrent under a random
// (seeded) schedule — thread interleaving control WITHOUT any memory
// reordering: the kernel is instrumented (so every access is a scheduling
// point) but no OEMU directives are ever installed, so memory stays
// sequentially consistent.
func (iv *Interleaver) ExecPair(p *syzlang.Program, i, j int, scheduleSeed int64) *kernel.Crash {
	cfg := engine.Config{
		Modules:      iv.Modules,
		Bugs:         iv.Bugs,
		Instrumented: true,
	}
	res := iv.eng.Run(cfg, engine.Interleave{}, engine.Request{Prog: p, I: i, J: j, Seed: scheduleSeed})
	// Executions that die in the sequential prefix never reach the
	// concurrent stage and do not count toward pair throughput.
	if !res.PrefixCrash {
		iv.Execs++
	}
	return res.Crash
}

// Hunt runs `rounds` random schedules of every adjacent pair of the
// program, collecting crashes. It returns the crash titles found.
func (iv *Interleaver) Hunt(p *syzlang.Program, rounds int) []string {
	for r := 0; r < rounds; r++ {
		for i := 0; i+1 < len(p.Calls); i++ {
			for j := i + 1; j < len(p.Calls); j++ {
				if c := iv.ExecPair(p, i, j, iv.rng.Int63()); c != nil {
					iv.Reports.Add(&report.Report{Title: c.Title, Oracle: c.Oracle, Program: p.String()})
				}
			}
		}
	}
	return iv.Reports.Titles()
}

// KernelCounters reports pooled-kernel reuse: acquisitions recycled from
// the engine's pool vs. built fresh.
func (iv *Interleaver) KernelCounters() (recycled, built uint64) {
	return iv.eng.KernelCounters()
}

// RecycleRate is the fraction of executions that reused a pooled kernel.
func (iv *Interleaver) RecycleRate() float64 { return iv.eng.RecycleRate() }
