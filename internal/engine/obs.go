package engine

import (
	"time"

	"ozz/internal/memmodel"
	"ozz/internal/obs"
	"ozz/internal/oemu"
	"ozz/internal/sched"
)

// StrategyNames lists the built-in strategy labels pre-registered on every
// engine registry, so a scrape shows all drivers' series (at zero) before
// any run. Out-of-tree strategies get their children created on first use.
var StrategyNames = []string{"ooo", "sequential", "interleave", "kcsan"}

// shapeNames are the two run shapes the engine executes.
var shapeNames = []string{"sequential", "pair"}

// flushCauses are the store-buffer drain causes of oemu.Counters, in the
// order they label ozz_oemu_flushes_total.
var flushCauses = []string{"smp_wmb", "smp_mb", "release", "interrupt", "syscall_exit"}

// metrics is the engine's handle bundle into an obs.Registry: every
// lifecycle metric, pre-resolved at construction so the run path does no
// name lookups for built-in strategies and registered models. All handles
// are per-engine unless the caller shares a registry across engines (then
// counters are cumulative across them).
type metrics struct {
	reg *obs.Registry

	runs          *obs.CounterVec
	runDur        *obs.HistogramVec
	crashes       *obs.CounterVec
	deadlocks     *obs.CounterVec
	prefixCrashes *obs.Counter
	modelRuns     *obs.CounterVec

	// strategies, and models under modelNames, hold the children of the
	// labelled families above for every built-in strategy and registered
	// model. They are filled by newMetrics and only read afterwards, so
	// concurrent runs share them without the families' mutexes.
	strategies []strategyMetrics
	modelNames []string
	models     []*obs.Counter

	mtiPairs    *obs.Counter
	mtiFired    *obs.Counter
	mtiReorders *obs.Counter

	schedMigrations *obs.Counter

	kernelRecycled *obs.Counter
	kernelBuilt    *obs.Counter
	acquireDur     *obs.Histogram

	schedYields   *obs.Counter
	schedSwitches *obs.Counter

	oemuDelayed   *obs.Counter
	oemuForwarded *obs.Counter
	oemuVersioned *obs.Counter
	oemuCommitted *obs.Counter
	oemuWindow    *obs.Counter
	oemuFlush     [5]*obs.Counter // indexed like flushCauses

	oemuThreadRecycled *obs.Counter
	oemuThreadBuilt    *obs.Counter
	oemuRingRecycled   *obs.Counter
	oemuRingBuilt      *obs.Counter
}

// newMetrics registers the engine metric families on reg and pre-creates
// the label children for every built-in strategy, shape, flush cause, and
// acquire source, so the exposition is complete from the first scrape.
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{reg: reg}

	m.runs = reg.CounterVec("ozz_engine_runs_total",
		"Engine executions by strategy and run shape (sequential=STI/baseline, pair=MTI).",
		"strategy", "shape")
	m.runDur = reg.HistogramVec("ozz_engine_run_duration_seconds",
		"Wall-clock duration of one engine execution (acquire through publication), seconds.",
		obs.DurationBuckets(), "strategy")
	m.crashes = reg.CounterVec("ozz_engine_crashes_total",
		"Runs that ended in a kernel crash oracle firing, by strategy.", "strategy")
	m.deadlocks = reg.CounterVec("ozz_engine_deadlocks_total",
		"Runs that ended in a scheduler deadlock, by strategy.", "strategy")
	m.strategies = make([]strategyMetrics, len(StrategyNames))
	for i, s := range StrategyNames {
		m.strategies[i] = m.resolveStrategy(s)
	}
	m.prefixCrashes = reg.Counter("ozz_engine_prefix_crashes_total",
		"Pair runs aborted during the sequential prefix (non-OOO crash; concurrent stage never ran).")

	m.modelRuns = reg.CounterVec("ozz_model_runs_total",
		"Engine executions by the memory model OEMU emulated for the run.", "model")
	m.modelNames = memmodel.Names()
	m.models = make([]*obs.Counter, len(m.modelNames))
	for i, name := range m.modelNames {
		m.models[i] = m.modelRuns.With(name)
	}

	m.mtiPairs = reg.Counter("ozz_mti_pairs_total",
		"Concurrent-pair (MTI) stages executed across all strategies.")
	m.mtiFired = reg.Counter("ozz_mti_fired_total",
		"MTI runs whose scheduling breakpoint was reached (hint fired).")
	m.mtiReorders = reg.Counter("ozz_mti_reorders_total",
		"Genuine OEMU reorderings (delayed stores + versioned loads) observed in MTI runs.")

	m.schedMigrations = reg.Counter("ozz_sched_migrations_total",
		"Real cross-CPU task migrations performed at the scheduling points of migration-sensitive hints (store buffers survive the move).")

	acquires := reg.CounterVec("ozz_kernel_acquires_total",
		"Kernel acquisitions by source: an idle kernel recycled (Reset) vs built fresh.", "source")
	m.kernelRecycled = acquires.With("recycled")
	m.kernelBuilt = acquires.With("built")
	m.acquireDur = reg.Histogram("ozz_kernel_acquire_duration_seconds",
		"Wall-clock kernel acquire latency (idle-list take + Reset, or fresh construction), seconds.",
		obs.DurationBuckets())

	m.schedYields = reg.Counter("ozz_sched_yields_total",
		"Scheduling points hit across all sessions (every instrumented access is one).")
	m.schedSwitches = reg.Counter("ozz_sched_preemptions_total",
		"Scheduling points where the run token moved to a different task (subset of yields).")

	m.oemuDelayed = reg.Counter("ozz_oemu_delayed_stores_total",
		"Stores held in a virtual store buffer (paper §3.1).")
	m.oemuForwarded = reg.Counter("ozz_oemu_forwarded_loads_total",
		"Loads satisfied by store-to-load forwarding from the local buffer.")
	m.oemuVersioned = reg.Counter("ozz_oemu_versioned_loads_total",
		"Loads that observed an old value from the store history (paper §3.2).")
	m.oemuCommitted = reg.Counter("ozz_oemu_committed_stores_total",
		"Stores written through to memory (including delayed stores at flush).")
	m.oemuWindow = reg.Counter("ozz_oemu_load_window_advances_total",
		"Versioning-window starts moving forward (load/full/acquire barriers and annotated loads).")
	flushes := reg.CounterVec("ozz_oemu_flushes_total",
		"Non-empty virtual store buffer drains by cause.", "cause")
	for i, c := range flushCauses {
		m.oemuFlush[i] = flushes.With(c)
	}

	threadAcquires := reg.CounterVec("ozz_oemu_thread_acquires_total",
		"OEMU thread acquisitions by source: recycled from the emulator's freelist vs built fresh.",
		"source")
	m.oemuThreadRecycled = threadAcquires.With("recycled")
	m.oemuThreadBuilt = threadAcquires.With("built")
	ringAcquires := reg.CounterVec("ozz_oemu_history_ring_acquires_total",
		"Store-history ring activations by source: recycled ring storage vs freshly allocated.",
		"source")
	m.oemuRingRecycled = ringAcquires.With("recycled")
	m.oemuRingBuilt = ringAcquires.With("built")
	return m
}

// strategyMetrics are one strategy's children of the per-strategy
// families.
type strategyMetrics struct {
	name      string
	runs      [2]*obs.Counter // indexed like shapeNames
	dur       *obs.Histogram
	crashes   *obs.Counter
	deadlocks *obs.Counter
}

// resolveStrategy looks up (creating at zero) a strategy's children.
func (m *metrics) resolveStrategy(s string) strategyMetrics {
	sm := strategyMetrics{
		name:      s,
		dur:       m.runDur.With(s),
		crashes:   m.crashes.With(s),
		deadlocks: m.deadlocks.With(s),
	}
	for i, sh := range shapeNames {
		sm.runs[i] = m.runs.With(s, sh)
	}
	return sm
}

// strategy returns the named strategy's children: pre-resolved for the
// built-in strategies, looked up through the families for any other.
func (m *metrics) strategy(name string) *strategyMetrics {
	for i := range m.strategies {
		if m.strategies[i].name == name {
			return &m.strategies[i]
		}
	}
	sm := m.resolveStrategy(name)
	return &sm
}

// modelRun returns the named model's run counter: pre-resolved for the
// models registered when the engine was built, looked up through the
// family for any other.
func (m *metrics) modelRun(name string) *obs.Counter {
	for i, n := range m.modelNames {
		if n == name {
			return m.models[i]
		}
	}
	return m.modelRuns.With(name)
}

// observeSession harvests a finished scheduler session's yield/preemption
// tallies into the registry.
func (m *metrics) observeSession(s *sched.Session) {
	m.schedYields.Add(s.Yields())
	m.schedSwitches.Add(s.Switches())
}

// publishRun records one finished execution: run/crash counters by
// strategy and shape, MTI outcome counters, and the kernel's OEMU
// activity tally for the run.
func (m *metrics) publishRun(strategy string, pair bool, model string, d time.Duration, res *Result, oc oemu.Counters) {
	sm := m.strategy(strategy)
	shape := 0
	if pair {
		shape = 1
	}
	sm.runs[shape].Inc()
	sm.dur.Observe(d.Seconds())
	m.modelRun(model).Inc()
	if res.Crash != nil {
		sm.crashes.Inc()
	}
	if res.Deadlock != nil {
		sm.deadlocks.Inc()
	}
	if res.PrefixCrash {
		m.prefixCrashes.Inc()
	}
	if pair {
		m.mtiPairs.Inc()
		if res.Fired {
			m.mtiFired.Inc()
		}
		m.mtiReorders.Add(uint64(res.Reordered))
		m.schedMigrations.Add(uint64(res.Migrations))
	}
	m.oemuDelayed.Add(oc.StoresDelayed)
	m.oemuForwarded.Add(oc.ForwardedLoads)
	m.oemuVersioned.Add(oc.VersionedLoads)
	m.oemuCommitted.Add(oc.StoresCommitted)
	m.oemuWindow.Add(oc.LoadWindowAdvances)
	for i, v := range [5]uint64{oc.FlushSmpWmb, oc.FlushSmpMb, oc.FlushRelease, oc.FlushInterrupt, oc.FlushSyscall} {
		m.oemuFlush[i].Add(v)
	}
	m.oemuThreadRecycled.Add(oc.ThreadsRecycled)
	m.oemuThreadBuilt.Add(oc.ThreadsBuilt)
	m.oemuRingRecycled.Add(oc.HistRingsRecycled)
	m.oemuRingBuilt.Add(oc.HistRingsBuilt)
}
