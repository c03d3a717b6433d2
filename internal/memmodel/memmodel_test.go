package memmodel

import (
	"strings"
	"testing"

	"ozz/internal/trace"
)

// TestModelsExhaustive is the registry-wide exhaustiveness gate: every
// registered model must define semantics for every trace.BarrierKind and
// trace.Atomicity value. Compile already rejects partial Defs, but this
// test is what fails with a readable message when someone adds an enum
// value and recompiles stale tables via cached arrays — it re-walks the
// live enums, mirroring the observability doc-diff pattern.
func TestModelsExhaustive(t *testing.T) {
	models := All()
	if len(models) < 3 {
		t.Fatalf("registry has %d models, want at least lkmm/tso/armv8", len(models))
	}
	for _, m := range models {
		for _, k := range trace.AllBarrierKinds() {
			// The accessors must be in-bounds and deterministic for every
			// kind; calling them is the check (a stale table would panic
			// on an out-of-range index).
			_ = m.OrdersStores(k)
			_ = m.OrdersLoads(k)
		}
		for _, a := range trace.AllAtomicities() {
			if m.Release(a) && m.Delayable(a) {
				t.Errorf("%s: %s store both release and delayable", m.Name(), a)
			}
			_ = m.LoadBarrier(a)
			_ = m.Versionable(a)
		}
	}
	// The enum-count constants the tables are sized by must match the live
	// enums — if AllAtomicities grows past NumAtomicities the arrays above
	// are too small and every model silently truncates.
	if n := len(trace.AllAtomicities()); n != trace.NumAtomicities {
		t.Errorf("AllAtomicities()=%d, NumAtomicities=%d", n, trace.NumAtomicities)
	}
	if n := len(trace.AllBarrierKinds()); n != trace.NumBarrierKinds {
		t.Errorf("AllBarrierKinds()=%d, NumBarrierKinds=%d", n, trace.NumBarrierKinds)
	}
}

// The LKMM predicates of the paper (§3.3, §10.1), stated directly so the
// compiled table can be pinned against them.
//
//   - ordersStores: store buffer flush points (store, full and release
//     barriers) forbid delaying precedent stores past them;
//   - ordersLoads: versioning-window reset points (load, full and acquire
//     barriers) forbid subsequent loads from reading older values;
//   - isRelease: a release store (Case 5: smp_store_release,
//     clear_bit_unlock) drains the store buffer and is never delayed;
//   - actsAsLoadBarrier: an acquire load (Case 4) or an annotated load
//     (READ_ONCE / atomic RMW, Case 6) pins the versioning window.
func ordersStores(k trace.BarrierKind) bool {
	return k == trace.BarrierFull || k == trace.BarrierStore || k == trace.BarrierRelease
}

func ordersLoads(k trace.BarrierKind) bool {
	return k == trace.BarrierFull || k == trace.BarrierLoad || k == trace.BarrierAcquire
}

func isRelease(a trace.Atomicity) bool { return a == trace.AtomicRelease }

func actsAsLoadBarrier(a trace.Atomicity) bool {
	return a == trace.Once || a == trace.Atomic || a == trace.AtomicAcquire
}

// TestLKMMMatchesTracePredicates pins the compiled LKMM table bit-identical
// to the LKMM predicates above. If this fails, a change altered the
// default semantics.
func TestLKMMMatchesTracePredicates(t *testing.T) {
	for _, k := range trace.AllBarrierKinds() {
		if got, want := LKMM.OrdersStores(k), ordersStores(k); got != want {
			t.Errorf("LKMM.OrdersStores(%s)=%v, LKMM predicate says %v", k, got, want)
		}
		if got, want := LKMM.OrdersLoads(k), ordersLoads(k); got != want {
			t.Errorf("LKMM.OrdersLoads(%s)=%v, LKMM predicate says %v", k, got, want)
		}
	}
	for _, a := range trace.AllAtomicities() {
		if got, want := LKMM.Release(a), isRelease(a); got != want {
			t.Errorf("LKMM.Release(%s)=%v, LKMM predicate says %v", a, got, want)
		}
		if got, want := LKMM.Delayable(a), !isRelease(a); got != want {
			t.Errorf("LKMM.Delayable(%s)=%v, want %v (every non-release store delays)", a, got, want)
		}
		if got, want := LKMM.LoadBarrier(a), actsAsLoadBarrier(a); got != want {
			t.Errorf("LKMM.LoadBarrier(%s)=%v, LKMM predicate says %v", a, got, want)
		}
		// The pre-refactor versioned-load path had no atomicity gate:
		// every load annotation may read stale values under LKMM.
		if !LKMM.Versionable(a) {
			t.Errorf("LKMM.Versionable(%s)=false, want true for bit-identity", a)
		}
	}
	if LKMM.StoreStoreOrdered() {
		t.Error("LKMM must not preserve store->store order (smp_wmb exists for a reason)")
	}
	if !LKMM.AnyDelayable() || !LKMM.AnyVersionable() {
		t.Error("LKMM must have delayable stores and versionable loads")
	}
}

// TestTSOSemantics pins the load-bearing TSO table entries.
func TestTSOSemantics(t *testing.T) {
	if !TSO.StoreStoreOrdered() {
		t.Error("TSO must preserve store->store order")
	}
	if TSO.AnyVersionable() {
		t.Error("TSO has no invalidation-queue effects; no load may be versionable")
	}
	if !TSO.AnyDelayable() {
		t.Error("TSO must delay stores (store->load reordering is its whole point)")
	}
	// Only smp_mb orders anything; wmb/rmb/acquire/release are x86 no-ops.
	for _, k := range trace.AllBarrierKinds() {
		want := k == trace.BarrierFull
		if TSO.OrdersStores(k) != want || TSO.OrdersLoads(k) != want {
			t.Errorf("TSO barrier %s: OrdersStores=%v OrdersLoads=%v, want both %v",
				k, TSO.OrdersStores(k), TSO.OrdersLoads(k), want)
		}
	}
	// A locked RMW is the one store that acts as a full fence.
	if !TSO.Release(trace.Atomic) || TSO.Delayable(trace.Atomic) {
		t.Error("TSO atomic RMW store must be a non-delayable fence")
	}
	// Release stores ride the FIFO buffer like any other store.
	if TSO.Release(trace.AtomicRelease) || !TSO.Delayable(trace.AtomicRelease) {
		t.Error("TSO release store must be a plain delayable mov")
	}
}

// TestARMv8Semantics pins the load-bearing ARMv8 table entries.
func TestARMv8Semantics(t *testing.T) {
	// The one divergence from LKMM: relaxed annotated loads do not pin the
	// versioning window — acquire is the only load fence among atomicities.
	for _, a := range trace.AllAtomicities() {
		want := a == trace.AtomicAcquire
		if got := ARMv8.LoadBarrier(a); got != want {
			t.Errorf("ARMv8.LoadBarrier(%s)=%v, want %v", a, got, want)
		}
		if !ARMv8.Versionable(a) {
			t.Errorf("ARMv8.Versionable(%s)=false, want true", a)
		}
	}
	// Store-side and explicit barriers match LKMM (dmb variants + stlr).
	for _, k := range trace.AllBarrierKinds() {
		if ARMv8.OrdersStores(k) != LKMM.OrdersStores(k) || ARMv8.OrdersLoads(k) != LKMM.OrdersLoads(k) {
			t.Errorf("ARMv8 barrier %s diverges from LKMM", k)
		}
	}
	if ARMv8.StoreStoreOrdered() {
		t.Error("ARMv8 must not preserve store->store order")
	}
}

// TestCompileRejectsPartialDefs checks that Compile enforces
// exhaustiveness — this is what makes the satellite check structural
// rather than advisory.
func TestCompileRejectsPartialDefs(t *testing.T) {
	full := func() Def {
		d := Def{
			Name:     "t",
			Barriers: map[trace.BarrierKind]BarrierSem{},
			Stores:   map[trace.Atomicity]StoreSem{},
			Loads:    map[trace.Atomicity]LoadSem{},
		}
		for _, k := range trace.AllBarrierKinds() {
			d.Barriers[k] = BarrierSem{}
		}
		for _, a := range trace.AllAtomicities() {
			d.Stores[a] = StoreSem{Delayable: true}
			d.Loads[a] = LoadSem{}
		}
		return d
	}
	if _, err := Compile(full()); err != nil {
		t.Fatalf("complete Def rejected: %v", err)
	}

	d := full()
	delete(d.Barriers, trace.BarrierAcquire)
	if _, err := Compile(d); err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Errorf("missing barrier entry not rejected: %v", err)
	}
	d = full()
	delete(d.Stores, trace.Atomic)
	if _, err := Compile(d); err == nil {
		t.Error("missing store entry not rejected")
	}
	d = full()
	delete(d.Loads, trace.AtomicRelease)
	if _, err := Compile(d); err == nil {
		t.Error("missing load entry not rejected")
	}
	d = full()
	d.Stores[trace.Once] = StoreSem{Release: true, Delayable: true}
	if _, err := Compile(d); err == nil {
		t.Error("release+delayable store not rejected")
	}
	d = full()
	d.Name = ""
	if _, err := Compile(d); err == nil {
		t.Error("unnamed Def not rejected")
	}
}

// TestRegistry checks ByName/Names over the built-ins.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"lkmm", "tso", "armv8"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("ByName(%q).Name()=%q", name, m.Name())
		}
	}
	if _, err := ByName("power"); err == nil {
		t.Error("unknown model not rejected")
	}
	names := Names()
	if len(names) < 3 {
		t.Fatalf("Names()=%v, want at least 3", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
	for i, m := range All() {
		if m.Name() != names[i] {
			t.Errorf("All()[%d] = %s, Names()[%d] = %s", i, m.Name(), i, names[i])
		}
	}
}
