package engine

import (
	"strings"
	"sync"

	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/obs"
	"ozz/internal/oemu"
)

// planCacheCap bounds the number of cached directive plans. At the cap
// the cache is dropped wholesale (epoch clearing): O(1) eviction with no
// iteration-order nondeterminism.
const planCacheCap = 4096

// planCache memoizes precompiled OEMU directive plans keyed by what a
// plan depends on: the memory model and the reorder spec (test kind and
// site list), not the program. Hint generation emits the same sites for
// every MTI schedule derived from one STI profile, mutated programs reach
// the same sites again, and triage re-runs the same MTI repeatedly — so
// compiling the sorted site slices once and sharing the immutable *Plan
// removes per-run directive-set construction from the hot loop.
//
// Safe for concurrent use. Cached plans are shared and immutable by
// construction (oemu.Plan is read-only after CompilePlan; threads hold it
// by reference and never write through it).
type planCache struct {
	mu sync.RWMutex
	m  map[string]*oemu.Plan

	// hits/misses are the engine registry's ozz_plan_cache_lookups_total
	// children, wired at engine construction.
	hits, misses *obs.Counter
}

// plan returns the compiled plan for the spec under the given memory
// model, compiling and caching it on first sight. Plans are
// model-specific (CompilePlanModel drops sites the model makes inert),
// so the key includes the model name — one spec run under two models
// yields two cache entries. Two workers racing one uncached spec both
// compile (both count a miss); the plans are equivalent, so
// last-write-wins is fine.
func (c *planCache) plan(spec *ReorderSpec, mm *memmodel.Table) *oemu.Plan {
	key := planKey(spec, mm)
	c.mu.RLock()
	p := c.m[key]
	c.mu.RUnlock()
	if p != nil {
		c.hits.Inc()
		return p
	}
	c.misses.Inc()
	p = compileSpec(spec, mm)
	c.mu.Lock()
	if c.m == nil || len(c.m) >= planCacheCap {
		c.m = make(map[string]*oemu.Plan)
	}
	c.m[key] = p
	c.mu.Unlock()
	return p
}

// compileSpec maps the spec's test kind onto the directive kind of Table 2:
// a store-barrier test delays the stores at the sites, a load-barrier test
// makes the loads at the sites read old values.
func compileSpec(spec *ReorderSpec, mm *memmodel.Table) *oemu.Plan {
	switch spec.Test {
	case hints.StoreBarrierTest:
		return oemu.CompilePlanModel(spec.Sites, nil, mm)
	case hints.LoadBarrierTest:
		return oemu.CompilePlanModel(nil, spec.Sites, mm)
	}
	return oemu.CompilePlanModel(nil, nil, mm)
}

// planKey builds the cache key: model name, test kind byte, then the site
// list little-endian. Sites come straight from the hint (already
// deterministic order for a given hint), so byte-identical specs collide
// exactly.
func planKey(spec *ReorderSpec, mm *memmodel.Table) string {
	var sb strings.Builder
	mn := mm.Name()
	sb.Grow(len(mn) + 2 + 8*len(spec.Sites))
	sb.WriteString(mn)
	sb.WriteByte(0)
	sb.WriteByte(byte(spec.Test))
	for _, s := range spec.Sites {
		v := uint64(s)
		for i := 0; i < 8; i++ {
			sb.WriteByte(byte(v >> (8 * i)))
		}
	}
	return sb.String()
}

// PlanCacheCounters reports directive-plan cache hits and misses. Two
// workers racing one uncached spec both count a miss.
func (e *Engine) PlanCacheCounters() (hits, misses uint64) {
	return e.plans.hits.Value(), e.plans.misses.Value()
}
