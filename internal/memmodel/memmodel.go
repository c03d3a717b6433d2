// Package memmodel defines the memory-model abstraction OZZ's two
// executable semantics share: the in-vivo emulator (internal/oemu) and the
// reference enumerator (internal/lkmm/model) both dispatch every
// barrier/atomicity ordering decision through one compiled semantics table
// per model, so adding an architecture means writing one declarative Def —
// not re-deriving the store-buffer and versioning rules in two places.
//
// A model is authored as a Def: three small maps (barrier kind → ordering
// effect, store atomicity → store semantics, load atomicity → load
// semantics) plus the preserved-program-order predicate set. Compile
// validates the Def is exhaustive over every trace.BarrierKind and
// trace.Atomicity value and produces an immutable Table — dense bool
// arrays indexed by the enum values — so the emulator's inner loop pays an
// array load per decision, never an interface call or map lookup
// (pinned by the model_dispatch micro driver's zero-alloc test).
//
// Three models ship (see models.go): "lkmm" (bit-identical to the
// hard-coded semantics this package replaced), "tso" (x86: store→load
// reordering only), and "armv8" (weaker load ordering; acquire/release are
// the only one-way fences). Registry lookups (ByName) serve the -model
// flags on cmd/ozz and cmd/litmus.
package memmodel

import (
	"fmt"
	"sort"
	"sync"

	"ozz/internal/trace"
)

// BarrierSem is the ordering effect of one explicit barrier kind.
type BarrierSem struct {
	// OrdersStores: the barrier forbids delaying precedent stores past it
	// (a store-buffer flush point in the emulator; an in-order commit
	// point in the enumerator).
	OrdersStores bool
	// OrdersLoads: the barrier forbids subsequent loads from reading
	// values older than the barrier point (a versioning-window reset).
	OrdersLoads bool
}

// StoreSem is the semantics of a STORE carrying one atomicity annotation.
type StoreSem struct {
	// Release: all precedent accesses are ordered before this store. The
	// emulator drains the store buffer and never delays the store itself.
	Release bool
	// Delayable: the model permits this store to sit in the virtual store
	// buffer (i.e. to become visible to other threads late). A
	// non-delayable, non-release store commits in place without flushing
	// anything else.
	Delayable bool
}

// LoadSem is the semantics of a LOAD carrying one atomicity annotation.
type LoadSem struct {
	// LoadBarrier: the load orders subsequent loads after itself and so
	// pins the versioning window forward once it executes (LKMM Case 4/6).
	LoadBarrier bool
	// Versionable: the model permits this load to return a stale value
	// from the location's store history (i.e. to appear to execute early).
	Versionable bool
}

// PPO is the preserved-program-order predicate set: same-thread access
// pairs the model never reorders regardless of directives.
type PPO struct {
	// StoreStore: program-earlier stores become visible before
	// program-later stores to *different* locations (TSO's FIFO store
	// buffer). Under it the emulator never coalesces into a non-newest
	// buffer entry and never commits a store while older stores are still
	// buffered. Same-location order (coherence) is unconditional in every
	// model and not represented here.
	StoreStore bool
}

// Def declares one memory model. All three maps must be exhaustive over
// the trace enums; Compile rejects partial definitions so adding a new
// BarrierKind or Atomicity forces every model to take a position.
type Def struct {
	// Name is the registry key and -model flag value (e.g. "lkmm").
	Name string
	// Barriers maps every trace.BarrierKind to its ordering effect.
	Barriers map[trace.BarrierKind]BarrierSem
	// Stores maps every trace.Atomicity to its store-side semantics.
	Stores map[trace.Atomicity]StoreSem
	// Loads maps every trace.Atomicity to its load-side semantics.
	Loads map[trace.Atomicity]LoadSem
	// PPO is the preserved-program-order predicate set.
	PPO PPO
}

// Table is a compiled, immutable memory model. Accessors are dense array
// loads — safe to call from the emulator's inner loop with zero
// allocations and no interface dispatch.
type Table struct {
	name string

	ordersStores [trace.NumBarrierKinds]bool
	ordersLoads  [trace.NumBarrierKinds]bool
	release      [trace.NumAtomicities]bool
	delayable    [trace.NumAtomicities]bool
	loadBarrier  [trace.NumAtomicities]bool
	versionable  [trace.NumAtomicities]bool

	storeStore bool

	anyDelayable   bool
	anyVersionable bool
}

// Compile validates a Def for exhaustiveness and internal consistency and
// returns its immutable Table.
func Compile(d Def) (*Table, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("memmodel: Def has no name")
	}
	t := &Table{name: d.Name, storeStore: d.PPO.StoreStore}
	for _, k := range trace.AllBarrierKinds() {
		sem, ok := d.Barriers[k]
		if !ok {
			return nil, fmt.Errorf("memmodel %q: no barrier semantics for %s", d.Name, k)
		}
		t.ordersStores[k] = sem.OrdersStores
		t.ordersLoads[k] = sem.OrdersLoads
	}
	for _, a := range trace.AllAtomicities() {
		ss, ok := d.Stores[a]
		if !ok {
			return nil, fmt.Errorf("memmodel %q: no store semantics for %s", d.Name, a)
		}
		ls, ok := d.Loads[a]
		if !ok {
			return nil, fmt.Errorf("memmodel %q: no load semantics for %s", d.Name, a)
		}
		if ss.Release && ss.Delayable {
			return nil, fmt.Errorf("memmodel %q: %s store is both release and delayable", d.Name, a)
		}
		t.release[a] = ss.Release
		t.delayable[a] = ss.Delayable
		t.loadBarrier[a] = ls.LoadBarrier
		t.versionable[a] = ls.Versionable
		t.anyDelayable = t.anyDelayable || ss.Delayable
		t.anyVersionable = t.anyVersionable || ls.Versionable
	}
	if len(d.Barriers) != trace.NumBarrierKinds {
		return nil, fmt.Errorf("memmodel %q: %d barrier entries, want %d", d.Name, len(d.Barriers), trace.NumBarrierKinds)
	}
	if len(d.Stores) != trace.NumAtomicities || len(d.Loads) != trace.NumAtomicities {
		return nil, fmt.Errorf("memmodel %q: %d store / %d load entries, want %d each",
			d.Name, len(d.Stores), len(d.Loads), trace.NumAtomicities)
	}
	return t, nil
}

// MustCompile is Compile panicking on error, for package-level singletons.
func MustCompile(d Def) *Table {
	t, err := Compile(d)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the registry key of the model.
func (t *Table) Name() string { return t.name }

// OrdersStores reports whether barrier k is a store-buffer flush point.
func (t *Table) OrdersStores(k trace.BarrierKind) bool { return t.ordersStores[k] }

// OrdersLoads reports whether barrier k resets the versioning window.
func (t *Table) OrdersLoads(k trace.BarrierKind) bool { return t.ordersLoads[k] }

// Release reports whether a store with annotation a has release semantics.
func (t *Table) Release(a trace.Atomicity) bool { return t.release[a] }

// Delayable reports whether a store with annotation a may be buffered.
func (t *Table) Delayable(a trace.Atomicity) bool { return t.delayable[a] }

// LoadBarrier reports whether a load with annotation a pins the
// versioning window forward (orders subsequent loads).
func (t *Table) LoadBarrier(a trace.Atomicity) bool { return t.loadBarrier[a] }

// Versionable reports whether a load with annotation a may read a stale
// value from the store history.
func (t *Table) Versionable(a trace.Atomicity) bool { return t.versionable[a] }

// StoreStoreOrdered reports whether preserved program order includes
// store→store (FIFO store buffer, as on x86-TSO).
func (t *Table) StoreStoreOrdered() bool { return t.storeStore }

// AnyDelayable reports whether any store annotation is delayable; when
// false, DelayStoreAt directives are inert under this model.
func (t *Table) AnyDelayable() bool { return t.anyDelayable }

// AnyVersionable reports whether any load annotation is versionable; when
// false the model has no invalidation-queue effects, ReadOldValueAt
// directives are inert, and load-barrier hint tests are skipped.
func (t *Table) AnyVersionable() bool { return t.anyVersionable }

var (
	regMu    sync.RWMutex
	registry = map[string]*Table{}
)

// Register adds a compiled model to the registry; the name must be new.
func Register(t *Table) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[t.name]; dup {
		panic(fmt.Sprintf("memmodel: duplicate registration of %q", t.name))
	}
	registry[t.name] = t
}

// ByName returns the registered model with the given name.
func ByName(name string) (*Table, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("memmodel: unknown model %q (have %v)", name, namesLocked())
	}
	return t, nil
}

// Names lists the registered model names sorted alphabetically.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered model, sorted by name.
func All() []*Table {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Table, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
