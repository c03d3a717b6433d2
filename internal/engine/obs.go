package engine

import (
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
// lifecycle metric, pre-resolved at construction so a tally's flush does
// no name lookups for built-in strategies and registered models. All
// handles are per-engine unless the caller shares a registry across
// engines (then counters are cumulative across them).
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
		"Kernel acquisitions, one per run, by source: a kernel that ran before, idle in the process or held by the running worker, recycled (Reset) vs built fresh.", "source")
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

// durationBuckets is the bucket layout of the engine's duration
// histograms, which their tallies share.
var durationBuckets = obs.DurationBuckets()

// tally is a runner's unpublished run metrics: plain counts and local
// histogram buckets, which flush adds into an engine's registry. A run
// tallies with plain adds into memory its runner owns, so runs on
// different cores share no cache line. All of a runner's runs between
// two flushes belong to the engine it is flushed into: a Worker runs on
// one engine, and a runner goes back to the idle list only once flushed.
type tally struct {
	// strategies and models hold one entry per strategy and memory
	// model the runner ran, in first-run order.
	strategies []strategyTally
	models     []modelTally
	acquireDur obs.HistogramTally
	// n holds the scalar counts.
	n runCounts
}

// strategyTally is one strategy's share of a tally.
type strategyTally struct {
	name      string
	runs      [2]uint64 // indexed like shapeNames
	dur       obs.HistogramTally
	crashes   uint64
	deadlocks uint64
}

// modelTally counts the runs under one memory model.
type modelTally struct {
	name string
	runs uint64
}

// runCounts are a tally's scalar counts.
type runCounts struct {
	prefixCrashes, mtiPairs, mtiFired, mtiReorders, migrations uint64
	recycled, built                                            uint64
	yields, switches                                           uint64
	oemu                                                       oemu.Counters
}

// newTally returns an empty tally.
func newTally() tally {
	return tally{acquireDur: obs.NewHistogramTally(durationBuckets)}
}

// strategy returns the named strategy's tally, adding one for a name the
// tally has not seen.
func (t *tally) strategy(name string) *strategyTally {
	for i := range t.strategies {
		if t.strategies[i].name == name {
			return &t.strategies[i]
		}
	}
	t.strategies = append(t.strategies, strategyTally{name: name, dur: obs.NewHistogramTally(durationBuckets)})
	return &t.strategies[len(t.strategies)-1]
}

// model returns the named model's run count, adding one for a name the
// tally has not seen.
func (t *tally) model(name string) *uint64 {
	for i := range t.models {
		if t.models[i].name == name {
			return &t.models[i].runs
		}
	}
	t.models = append(t.models, modelTally{name: name})
	return &t.models[len(t.models)-1].runs
}

// session tallies a finished scheduler session's yields and preemptions.
func (t *tally) session(s *sched.Session) {
	t.n.yields += s.Yields()
	t.n.switches += s.Switches()
}

// run tallies one finished execution: run/crash counters by strategy and
// shape, MTI outcome counters, and the kernel's OEMU activity for the
// run.
func (t *tally) run(strategy string, pair bool, model string, res *Result, oc oemu.Counters) {
	st := t.strategy(strategy)
	shape := 0
	if pair {
		shape = 1
	}
	st.runs[shape]++
	st.dur.Observe(res.Dur.Seconds())
	*t.model(model)++
	n := &t.n
	if res.Crash != nil {
		st.crashes++
	}
	if res.Deadlock != nil {
		st.deadlocks++
	}
	if res.PrefixCrash {
		n.prefixCrashes++
	}
	if pair {
		n.mtiPairs++
		if res.Fired {
			n.mtiFired++
		}
		n.mtiReorders += uint64(res.Reordered)
		n.migrations += uint64(res.Migrations)
	}
	o := &n.oemu
	o.StoresDelayed += oc.StoresDelayed
	o.ForwardedLoads += oc.ForwardedLoads
	o.VersionedLoads += oc.VersionedLoads
	o.StoresCommitted += oc.StoresCommitted
	o.LoadWindowAdvances += oc.LoadWindowAdvances
	o.FlushSmpWmb += oc.FlushSmpWmb
	o.FlushSmpMb += oc.FlushSmpMb
	o.FlushRelease += oc.FlushRelease
	o.FlushInterrupt += oc.FlushInterrupt
	o.FlushSyscall += oc.FlushSyscall
	o.ThreadsRecycled += oc.ThreadsRecycled
	o.ThreadsBuilt += oc.ThreadsBuilt
	o.HistRingsRecycled += oc.HistRingsRecycled
	o.HistRingsBuilt += oc.HistRingsBuilt
}

// flush adds the tally into m's registry and empties it. It is the only
// way run metrics reach a registry.
func (t *tally) flush(m *metrics) {
	for i := range t.strategies {
		st := &t.strategies[i]
		if st.runs == [2]uint64{} {
			continue
		}
		sm := m.strategy(st.name)
		add(sm.runs[0], st.runs[0])
		add(sm.runs[1], st.runs[1])
		st.dur.FlushTo(sm.dur)
		add(sm.crashes, st.crashes)
		add(sm.deadlocks, st.deadlocks)
		st.runs, st.crashes, st.deadlocks = [2]uint64{}, 0, 0
	}
	for i := range t.models {
		mt := &t.models[i]
		add(m.modelRun(mt.name), mt.runs)
		mt.runs = 0
	}
	t.acquireDur.FlushTo(m.acquireDur)
	n := &t.n
	add(m.kernelRecycled, n.recycled)
	add(m.kernelBuilt, n.built)
	add(m.prefixCrashes, n.prefixCrashes)
	add(m.mtiPairs, n.mtiPairs)
	add(m.mtiFired, n.mtiFired)
	add(m.mtiReorders, n.mtiReorders)
	add(m.schedMigrations, n.migrations)
	add(m.schedYields, n.yields)
	add(m.schedSwitches, n.switches)
	o := &n.oemu
	add(m.oemuDelayed, o.StoresDelayed)
	add(m.oemuForwarded, o.ForwardedLoads)
	add(m.oemuVersioned, o.VersionedLoads)
	add(m.oemuCommitted, o.StoresCommitted)
	add(m.oemuWindow, o.LoadWindowAdvances)
	for i, v := range [5]uint64{o.FlushSmpWmb, o.FlushSmpMb, o.FlushRelease, o.FlushInterrupt, o.FlushSyscall} {
		add(m.oemuFlush[i], v)
	}
	add(m.oemuThreadRecycled, o.ThreadsRecycled)
	add(m.oemuThreadBuilt, o.ThreadsBuilt)
	add(m.oemuRingRecycled, o.HistRingsRecycled)
	add(m.oemuRingBuilt, o.HistRingsBuilt)
	*n = runCounts{}
}

// add adds v to c, skipping the shared atomic write when v is 0.
func add(c *obs.Counter, v uint64) {
	if v != 0 {
		c.Add(v)
	}
}
