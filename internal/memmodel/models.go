// The three built-in memory models. Each is a declarative Def compiled at
// init; the LKMM table is pinned bit-identical to the paper's LKMM
// predicates (memmodel_test.go cross-checks every enum value), so a change
// cannot drift the default semantics.
package memmodel

import "ozz/internal/trace"

// LKMM is the Linux Kernel Memory Model as emulated by the paper (§3.3,
// §10.1): stores may be delayed unless release, every load may be
// versioned, annotated loads (READ_ONCE/atomic/acquire) pin the window
// (Cases 4 and 6), smp_wmb/smp_mb/release order stores, and
// smp_rmb/smp_mb/acquire order loads.
var LKMM = MustCompile(Def{
	Name: "lkmm",
	Barriers: map[trace.BarrierKind]BarrierSem{
		trace.BarrierFull:    {OrdersStores: true, OrdersLoads: true},
		trace.BarrierLoad:    {OrdersStores: false, OrdersLoads: true},
		trace.BarrierStore:   {OrdersStores: true, OrdersLoads: false},
		trace.BarrierAcquire: {OrdersStores: false, OrdersLoads: true},
		trace.BarrierRelease: {OrdersStores: true, OrdersLoads: false},
	},
	Stores: map[trace.Atomicity]StoreSem{
		trace.Plain:         {Release: false, Delayable: true},
		trace.Once:          {Release: false, Delayable: true}, // WRITE_ONCE is "Relaxed" (Table 1)
		trace.Atomic:        {Release: false, Delayable: true},
		trace.AtomicAcquire: {Release: false, Delayable: true},
		trace.AtomicRelease: {Release: true, Delayable: false},
	},
	Loads: map[trace.Atomicity]LoadSem{
		trace.Plain:         {LoadBarrier: false, Versionable: true},
		trace.Once:          {LoadBarrier: true, Versionable: true}, // Case 6: annotated load
		trace.Atomic:        {LoadBarrier: true, Versionable: true},
		trace.AtomicAcquire: {LoadBarrier: true, Versionable: true}, // Case 4: acquire
		trace.AtomicRelease: {LoadBarrier: false, Versionable: true},
	},
	PPO: PPO{StoreStore: false},
})

// TSO is x86's total-store-order model: the only architectural reordering
// is store→load through the FIFO store buffer. There are no
// invalidation-queue effects, so no load is versionable and ReadOldValueAt
// directives are inert. smp_wmb/smp_rmb and acquire/release compile to
// plain accesses on x86 (compiler barriers only), so only smp_mb — and the
// implied full fence of a locked RMW — drains the buffer. The FIFO
// discipline (PPO.StoreStore) means delayed stores still become visible in
// program order, which is exactly what makes release stores free on x86.
var TSO = MustCompile(Def{
	Name: "tso",
	Barriers: map[trace.BarrierKind]BarrierSem{
		trace.BarrierFull:    {OrdersStores: true, OrdersLoads: true},
		trace.BarrierLoad:    {OrdersStores: false, OrdersLoads: false}, // smp_rmb: no-op on x86
		trace.BarrierStore:   {OrdersStores: false, OrdersLoads: false}, // smp_wmb: no-op on x86
		trace.BarrierAcquire: {OrdersStores: false, OrdersLoads: false}, // plain mov
		trace.BarrierRelease: {OrdersStores: false, OrdersLoads: false}, // plain mov
	},
	Stores: map[trace.Atomicity]StoreSem{
		trace.Plain: {Release: false, Delayable: true},
		trace.Once:  {Release: false, Delayable: true},
		// A value-returning atomic RMW is a locked instruction — an
		// implied full fence that can never sit in the store buffer.
		trace.Atomic:        {Release: true, Delayable: false},
		trace.AtomicAcquire: {Release: false, Delayable: true},
		// smp_store_release is a plain mov on x86; its ordering comes for
		// free from the FIFO buffer, not from draining it.
		trace.AtomicRelease: {Release: false, Delayable: true},
	},
	Loads: map[trace.Atomicity]LoadSem{
		trace.Plain:         {LoadBarrier: false, Versionable: false},
		trace.Once:          {LoadBarrier: false, Versionable: false},
		trace.Atomic:        {LoadBarrier: false, Versionable: false},
		trace.AtomicAcquire: {LoadBarrier: false, Versionable: false},
		trace.AtomicRelease: {LoadBarrier: false, Versionable: false},
	},
	PPO: PPO{StoreStore: true},
})

// ARMv8 is a deliberately simplified ARMv8-ish weak model: like LKMM it
// delays stores and versions loads, but acquire loads (LDAR) are the ONLY
// one-way load fences — a relaxed annotated load (READ_ONCE → plain LDR)
// does not pin the versioning window, dropping LKMM's conservative Case 6
// dependency rule. This is intentionally weaker than real ARMv8 (which
// preserves address/control dependencies; OZZ's profile carries no
// dependency edges to check), so it over-approximates reachable
// reorderings rather than missing any.
var ARMv8 = MustCompile(Def{
	Name: "armv8",
	Barriers: map[trace.BarrierKind]BarrierSem{
		trace.BarrierFull:    {OrdersStores: true, OrdersLoads: true},  // dmb ish
		trace.BarrierLoad:    {OrdersStores: false, OrdersLoads: true}, // dmb ishld
		trace.BarrierStore:   {OrdersStores: true, OrdersLoads: false}, // dmb ishst
		trace.BarrierAcquire: {OrdersStores: false, OrdersLoads: true}, // ldar
		trace.BarrierRelease: {OrdersStores: true, OrdersLoads: false}, // stlr
	},
	Stores: map[trace.Atomicity]StoreSem{
		trace.Plain:         {Release: false, Delayable: true},
		trace.Once:          {Release: false, Delayable: true},
		trace.Atomic:        {Release: false, Delayable: true},
		trace.AtomicAcquire: {Release: false, Delayable: true},
		trace.AtomicRelease: {Release: true, Delayable: false}, // stlr
	},
	Loads: map[trace.Atomicity]LoadSem{
		trace.Plain:         {LoadBarrier: false, Versionable: true},
		trace.Once:          {LoadBarrier: false, Versionable: true}, // relaxed LDR: no Case 6
		trace.Atomic:        {LoadBarrier: false, Versionable: true},
		trace.AtomicAcquire: {LoadBarrier: true, Versionable: true}, // ldar
		trace.AtomicRelease: {LoadBarrier: false, Versionable: true},
	},
	PPO: PPO{StoreStore: false},
})
