package lkmm

// The named litmus suite — the §3.3/§10.1 compliance evidence. It used to
// live inside cmd/litmus; it is exported here so the differential harness
// (internal/lkmm/diff) can replay the exact same shapes through both OEMU
// and the reference model (internal/lkmm/model), and cmd/litmus renders it.

// SuiteEntry is one litmus shape with its LKMM verdicts: Allowed outcomes
// must be observable (the emulation-capability direction — a weak outcome
// the LKMM permits that an in-order executor cannot produce), Forbidden
// outcomes must never appear (the soundness direction).
type SuiteEntry struct {
	// Test is the litmus shape.
	Test *Test
	// Allowed lists outcomes that must be reachable.
	Allowed []Outcome
	// Forbidden lists outcomes that must be unreachable.
	Forbidden []Outcome
	// Comment explains what the shape pins, for reports.
	Comment string
	// Cases lists the §10.1 preserved-program-order cases the entry
	// exercises (1-7), empty for pure coherence/capability shapes.
	Cases []int
	// Models overrides the verdicts for non-LKMM memory models, keyed by
	// memmodel registry name ("tso", "armv8"). A model absent from the map
	// inherits the LKMM Allowed/Forbidden verdicts; a present entry
	// REPLACES both lists. Use VerdictsFor to resolve.
	Models map[string]ModelVerdict
}

// ModelVerdict is one memory model's Allowed/Forbidden expectation for a
// suite entry whose verdicts differ from the LKMM's.
type ModelVerdict struct {
	// Allowed lists outcomes that must be reachable under the model.
	Allowed []Outcome
	// Forbidden lists outcomes that must be unreachable under the model.
	Forbidden []Outcome
}

// VerdictsFor resolves the entry's verdicts under the named memory model:
// the per-model override when present, the LKMM defaults otherwise.
func (e *SuiteEntry) VerdictsFor(model string) (allowed, forbidden []Outcome) {
	if v, ok := e.Models[model]; ok {
		return v.Allowed, v.Forbidden
	}
	return e.Allowed, e.Forbidden
}

// suiteMP builds a message-passing shape: P0 stores data then flag (with
// barriers b0 between), P1 loads flag then data (with b1 between).
func suiteMP(name string, b0, b1 []Op) *Test {
	t0 := append([]Op{W(0, 1)}, b0...)
	t0 = append(t0, W(1, 1))
	t1 := append([]Op{R(1, 0)}, b1...)
	t1 = append(t1, R(0, 1))
	return &Test{Name: name, Threads: [][]Op{t0, t1}, NumLocs: 2, NumRegs: 2}
}

// Suite returns the named litmus shapes and their LKMM verdicts. Together
// the entries exercise all seven preserved-program-order cases of §10.1
// (see SuiteEntry.Cases) plus the per-location coherence axioms.
func Suite() []SuiteEntry {
	return []SuiteEntry{
		{
			Test:    suiteMP("MP (relaxed)", nil, nil),
			Allowed: []Outcome{"r0=1;r1=0"},
			Comment: "no barriers: the stale observation is allowed and OEMU reaches it",
			Models: map[string]ModelVerdict{
				// TSO's FIFO store buffer publishes data before flag, and
				// its loads never read stale values: barrier-free MP is
				// already ordered on x86.
				"tso": {Forbidden: []Outcome{"r0=1;r1=0"}},
			},
		},
		{
			Test:      suiteMP("MP+wmb+rmb", []Op{Wmb()}, []Op{Rmb()}),
			Forbidden: []Outcome{"r0=1;r1=0"},
			Comment:   "the Fig. 1 pair: both barriers forbid the stale observation (LKMM cases 2+3)",
			Cases:     []int{2, 3},
		},
		{
			Test:    suiteMP("MP+wmb only", []Op{Wmb()}, nil),
			Allowed: []Outcome{"r0=1;r1=0"},
			Comment: "writer ordered, reader not: still weak — why Fig. 1 needs BOTH barriers",
			Models: map[string]ModelVerdict{
				// On x86 the reader needs no barrier either.
				"tso": {Forbidden: []Outcome{"r0=1;r1=0"}},
			},
		},
		{
			Test:      suiteMP("MP+mb+mb", []Op{Mb()}, []Op{Mb()}),
			Forbidden: []Outcome{"r0=1;r1=0"},
			Comment:   "full barriers (LKMM case 1)",
			Cases:     []int{1},
		},
		{
			Test: &Test{Name: "MP+rel+acq", Threads: [][]Op{
				{W(0, 1), WRel(1, 1)},
				{RAcq(1, 0), R(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			Forbidden: []Outcome{"r0=1;r1=0"},
			Comment:   "smp_store_release / smp_load_acquire (LKMM cases 4+5)",
			Cases:     []int{4, 5},
		},
		{
			Test: &Test{Name: "MP+wmb+ROnce", Threads: [][]Op{
				{W(0, 1), Wmb(), W(1, 1)},
				{ROnce(1, 0), R(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			Forbidden: []Outcome{"r0=1;r1=0"},
			Comment:   "READ_ONCE flag consumer: the annotated load orders the dependent load (LKMM case 6)",
			Cases:     []int{6},
			Models: map[string]ModelVerdict{
				// The shape that splits all three models: LKMM forbids it
				// (Case 6), TSO forbids it (in-order loads), but ARMv8
				// drops the conservative annotated-load dependency rule —
				// a relaxed LDR does not order the dependent load, so the
				// stale observation is reachable.
				"armv8": {Allowed: []Outcome{"r0=1;r1=0"}},
				"tso":   {Forbidden: []Outcome{"r0=1;r1=0"}},
			},
		},
		{
			Test: &Test{Name: "SB (relaxed)", Threads: [][]Op{
				{WOnce(0, 1), ROnce(1, 0)},
				{WOnce(1, 1), ROnce(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			Allowed: []Outcome{"r0=0;r1=0"},
			Comment: "store buffering with Relaxed atomics: the Fig. 10 Rust example's shape",
		},
		{
			Test: &Test{Name: "SB+mb", Threads: [][]Op{
				{W(0, 1), Mb(), R(1, 0)},
				{W(1, 1), Mb(), R(0, 1)},
			}, NumLocs: 2, NumRegs: 2},
			Forbidden: []Outcome{"r0=0;r1=0"},
			Comment:   "only smp_mb orders store-load",
			Cases:     []int{1},
		},
		{
			Test: &Test{Name: "LB", Threads: [][]Op{
				{R(1, 0), W(0, 1)},
				{R(0, 1), W(1, 1)},
			}, NumLocs: 2, NumRegs: 2},
			Forbidden: []Outcome{"r0=1;r1=1"},
			Comment:   "load buffering needs load-store reordering: out of OEMU's scope by design (§3, LKMM case 7)",
			Cases:     []int{7},
		},
		{
			Test: &Test{Name: "CoRR", Threads: [][]Op{
				{W(0, 1)},
				{R(0, 0), R(0, 1)},
			}, NumLocs: 1, NumRegs: 2},
			Forbidden: []Outcome{"r0=1;r1=0"},
			Comment:   "per-location read-read coherence holds on every architecture (even Alpha)",
		},
		{
			Test: &Test{Name: "CoWR", Threads: [][]Op{
				{W(0, 5), R(0, 0)},
			}, NumLocs: 1, NumRegs: 1},
			Allowed:   []Outcome{"r0=5"},
			Forbidden: []Outcome{"r0=0"},
			Comment:   "a thread always sees its own store (store-to-load forwarding)",
		},
	}
}
