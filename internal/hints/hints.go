// Package hints implements OZZ's scheduling-hint calculation (§4.3):
// Algorithm 1 (hint construction via the hypothetical memory barrier test)
// and Algorithm 2 (filter_out: dropping memory accesses that cannot
// participate in an OOO bug because they touch no shared location).
//
// Given the profiled event sequences of two system calls Si and Sj, the
// package produces scheduling hints H_ij. Each hint names (a) which call
// reorders, (b) the test type (hypothetical store barrier vs. load
// barrier), (c) the scheduling point — the instruction at which the
// deterministic scheduler interleaves — and (d) the set of instruction
// sites whose accesses OEMU reorders (delays or versions).
package hints

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ozz/internal/memmodel"
	"ozz/internal/trace"
)

// TestKind is the hypothetical-barrier test type.
type TestKind uint8

const (
	// StoreBarrierTest emulates the absence of a store barrier using
	// delayed store operations (store-store / store-load reordering,
	// Fig. 5a).
	StoreBarrierTest TestKind = iota
	// LoadBarrierTest emulates the absence of a load barrier using
	// versioned load operations (load-load reordering, Fig. 5b).
	LoadBarrierTest
)

// String names the test.
func (k TestKind) String() string {
	if k == StoreBarrierTest {
		return "hypothetical-store-barrier"
	}
	return "hypothetical-load-barrier"
}

// closedByModel reports whether barrier event e closes a group for
// hypothetical-barrier test k under model mm (Algorithm 1 step 2). It is
// the preserved-program-order predicate of §10.1 shared with OEMU and the
// reference model (internal/lkmm/model): under LKMM, store-barrier tests
// group between the barriers that drain the virtual store buffer
// (smp_wmb/smp_mb/release — Cases 1, 2, 5), load-barrier tests between
// the barriers that pin the versioning window (smp_rmb/smp_mb/acquire and
// the implicit barrier of an annotated load — Cases 1, 3, 4, 6). The
// implicit barrier recorded for an annotated load (kernel access path) is
// re-derived from the model's per-atomicity load semantics: under armv8 a
// relaxed READ_ONCE does not pin the versioning window, so it must not
// close load-test groups either — otherwise the hint layer would
// under-approximate what OEMU can reorder.
func closedByModel(k TestKind, e *trace.BarrierEvent, mm *memmodel.Table) bool {
	if k == StoreBarrierTest {
		return mm.OrdersStores(e.Kind)
	}
	if e.Implicit && e.Kind == trace.BarrierLoad && e.Atomic != trace.Plain {
		return mm.LoadBarrier(e.Atomic)
	}
	return mm.OrdersLoads(e.Kind)
}

// Hint is one scheduling hint (h in Algorithm 1).
type Hint struct {
	// Reorderer selects which call of the pair executes reordered: 0 for
	// Si, 1 for Sj.
	Reorderer int
	// Test is the hypothetical-barrier test type.
	Test TestKind
	// Sched is the scheduling-point instruction site (h.sched): the
	// access immediately after (store test) or at the start of (load
	// test) the hypothetical barrier.
	Sched trace.InstrID
	// SchedOcc is which dynamic occurrence of Sched within the
	// reorderer's call the breakpoint should match (1-based).
	SchedOcc int
	// SchedKind is the access kind of the scheduling-point access; for a
	// store test it distinguishes store-store from store-load reordering.
	SchedKind trace.AccessKind
	// Reorder is h.reorder: the instruction sites whose accesses OEMU
	// reorders — only sites of the matching kind (stores for a store
	// test, loads for a load test) are retained, since only those can be
	// delayed/versioned.
	Reorder []trace.InstrID
	// Migrate lists the pair's per-CPU instruction sites (accesses tagged
	// trace.AccessEvent.PerCPU that survived FilterOut), sorted and
	// deduplicated. A non-empty set marks the pair migration-sensitive:
	// the racing location is a per-CPU slot, so the race only manifests
	// when one task moves CPUs between resolving the address and using it.
	// The OOO strategy performs a real cross-CPU move exactly for such
	// hints; a hint with an empty set never migrates. It is an annotation:
	// it does not participate in hint rendering or directives.
	Migrate []trace.InstrID
}

// ReorderCount is the search-heuristic key: the number of accesses that
// deviate from sequential order (§4.3 prioritizes the maximum).
func (h *Hint) ReorderCount() int { return len(h.Reorder) }

// Type returns the paper's reordering-type label: "S-S", "S-L", or "L-L".
func (h *Hint) Type() string {
	if h.Test == LoadBarrierTest {
		return "L-L"
	}
	if h.SchedKind == trace.Load {
		return "S-L"
	}
	return "S-S"
}

// WithReorder returns a copy of the hint whose reorder directive set is
// replaced by sites (the slice is copied). The repair search uses it to
// probe weakened directive sets — the reorderings a candidate fence
// still permits.
func (h *Hint) WithReorder(sites []trace.InstrID) *Hint {
	c := *h
	c.Reorder = append([]trace.InstrID(nil), sites...)
	return &c
}

// String renders the hint for reports.
func (h *Hint) String() string {
	rs := make([]string, len(h.Reorder))
	for i, r := range h.Reorder {
		rs[i] = fmt.Sprintf("%d", r)
	}
	return fmt.Sprintf("%s call=%d sched=%d#%d reorder=[%s]",
		h.Test, h.Reorderer, h.Sched, h.SchedOcc, strings.Join(rs, ","))
}

// FilterOut is Algorithm 2: it returns the event sequences of the two calls
// with every memory access removed that touches no location the other call
// also touches with at least one of the pair being a store. Barrier events
// are always retained — they delimit groups in Algorithm 1.
func FilterOut(si, sj []trace.Event) (fi, fj []trace.Event) {
	var sc Scratch
	sc.sharedLocations(si, sj)
	return keepShared(nil, si, sc.shared), keepShared(nil, sj, sc.shared)
}

// Scratch is reusable working memory for hint calculation: a caller that
// keeps one per goroutine, as each campaign worker does, allocates only
// the hints it gets back. The zero value is ready to use. A Scratch must
// not be used by two goroutines at once.
type Scratch struct {
	idx    map[trace.Addr]uint8 // sharedLocations' location index
	shared map[trace.Addr]bool  // Algorithm 2's shared_mem
	fi, fj []trace.Event        // the filtered call sequences
	accs   []groupAccess        // accessesOf's result
	occ    map[trace.InstrID]int
	seen   map[trace.InstrID]bool // collectKinds' dedup set
	sites  []trace.InstrID        // collectKinds' result
}

// Access bits of a location in sharedLocations' index.
const (
	loaded uint8 = 1 << iota
	stored
)

// sharedLocations computes Algorithm 2's shared_mem set into sc.shared:
// locations accessed by both calls where at least one of the overlapping
// pair writes.
func (sc *Scratch) sharedLocations(si, sj []trace.Event) {
	if sc.idx == nil {
		sc.idx = make(map[trace.Addr]uint8)
		sc.shared = make(map[trace.Addr]bool)
	}
	idx, shared := sc.idx, sc.shared
	clear(idx)
	clear(shared)
	for _, e := range si {
		if e.Barrier {
			continue
		}
		if e.Acc.Kind == trace.Load {
			idx[e.Acc.Addr] |= loaded
		} else {
			idx[e.Acc.Addr] |= stored
		}
	}
	for _, e := range sj {
		if e.Barrier {
			continue
		}
		// The pair (a_i, a_j) shares the location; require a write on
		// at least one side.
		if acc := idx[e.Acc.Addr]; acc&stored != 0 || acc != 0 && e.Acc.Kind == trace.Store {
			shared[e.Acc.Addr] = true
		}
	}
}

// keepShared appends the barriers of s and its accesses to shared
// locations, in order, to dst[:0].
func keepShared(dst, s []trace.Event, shared map[trace.Addr]bool) []trace.Event {
	dst = dst[:0]
	for i := range s {
		if s[i].Barrier || shared[s[i].Acc.Addr] {
			dst = append(dst, s[i])
		}
	}
	return dst
}

// group is one barrier-delimited run of accesses (g in Algorithm 1), with
// the dynamic occurrence index of each access's instruction site.
type groupAccess struct {
	instr trace.InstrID
	kind  trace.AccessKind
	occ   int // 1-based occurrence of instr within the whole call
}

// Calculate is Algorithm 1: it computes the scheduling hints H_ij for the
// profiled event sequences of two system calls. The result is sorted by
// descending reorder count (the search heuristic of §4.3: prioritize hints
// that deviate most from sequential order).
//
// One deliberate refinement over the paper's pseudocode: the trailing group
// after the last barrier (or the whole sequence when a call executes no
// barrier of the type) is also emitted. A missing barrier most often means
// no barrier of that type exists at all on the path, and the hypothetical
// barrier must still be placeable inside the trailing run; the store buffer
// drains at syscall return, which acts as the closing boundary.
func Calculate(si, sj []trace.Event) []*Hint {
	return CalculateModel(si, sj, memmodel.LKMM)
}

// CalculateModel is Calculate under an explicit memory model. Group
// closure follows the model's barrier table (closedByModel), and test
// kinds the model cannot exercise are skipped wholesale: a model with no
// versionable loads (TSO) yields no load-barrier hints, and a model that
// preserves store→store order emits store-test hints only where the
// scheduling point is a load (S-L) — its FIFO buffer makes S-S
// reorderings unobservable, so those hints would only burn executions.
func CalculateModel(si, sj []trace.Event, mm *memmodel.Table) []*Hint {
	var sc Scratch
	return sc.CalculateModel(si, sj, mm)
}

// CalculateModel is the package's CalculateModel, worked out in sc's
// memory.
func (sc *Scratch) CalculateModel(si, sj []trace.Event, mm *memmodel.Table) []*Hint {
	// Most pairs share no location. Their filtered sequences would hold
	// only barriers, which form no groups, so they yield no hints.
	sc.sharedLocations(si, sj)
	if len(sc.shared) == 0 {
		return nil
	}
	sc.fi = keepShared(sc.fi, si, sc.shared)
	sc.fj = keepShared(sc.fj, sj, sc.shared)
	fi, fj := sc.fi, sc.fj
	migrate := perCPUSites(fi, fj)
	var hints []*Hint
	for k, events := range [2][]trace.Event{fi, fj} {
		accs := sc.accessesOf(events)
		for _, test := range [2]TestKind{StoreBarrierTest, LoadBarrierTest} {
			if test == StoreBarrierTest && !mm.AnyDelayable() {
				continue
			}
			if test == LoadBarrierTest && !mm.AnyVersionable() {
				continue
			}
			groupByBarrier(events, accs, test, mm, func(g []groupAccess) {
				hints = sc.hintsForGroup(hints, k, test, g, mm)
			})
		}
	}
	// Step 4: sort by the search heuristic — most reordered accesses
	// first; ties broken deterministically.
	slices.SortStableFunc(hints, func(a, b *Hint) int {
		if d := b.ReorderCount() - a.ReorderCount(); d != 0 {
			return d
		}
		if c := cmp.Compare(a.Sched, b.Sched); c != 0 {
			return c
		}
		return cmp.Compare(a.Reorderer, b.Reorderer)
	})
	// Pair-level migration annotation: every hint of a migration-sensitive
	// pair carries the (shared) per-CPU site list. Computed from the
	// filtered sequences, so pre-filtering the inputs is idempotent.
	for _, h := range hints {
		h.Migrate = migrate
	}
	return hints
}

// perCPUSites returns the sorted, deduplicated instruction sites among both
// filtered sequences whose accesses touched per-CPU memory, or nil when the
// pair shares no per-CPU location.
func perCPUSites(fi, fj []trace.Event) []trace.InstrID {
	var sites []trace.InstrID
	for _, evs := range [][]trace.Event{fi, fj} {
		for _, e := range evs {
			if !e.Barrier && e.Acc.PerCPU {
				sites = append(sites, e.Acc.Instr)
			}
		}
	}
	if len(sites) == 0 {
		return nil
	}
	slices.Sort(sites)
	out := sites[:1]
	for _, s := range sites[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// accessesOf returns the call's accesses in order, each with its
// occurrence index, in sc.accs. occ counts SCHEDULING POINTS per site, not
// events: the store half of an RMW shares its scheduling point with the
// load half (NoYield), so the breakpoint occurrence for it is the load
// half's.
func (sc *Scratch) accessesOf(events []trace.Event) []groupAccess {
	if sc.occ == nil {
		sc.occ = make(map[trace.InstrID]int)
	}
	accs, occ := sc.accs[:0], sc.occ
	clear(occ)
	for i := range events {
		if events[i].Barrier {
			continue
		}
		e := &events[i].Acc
		if !e.NoYield {
			occ[e.Instr]++
		}
		accs = append(accs, groupAccess{instr: e.Instr, kind: e.Kind, occ: occ[e.Instr]})
	}
	sc.accs = accs
	return accs
}

// groupByBarrier is Step 2 of Algorithm 1: split the call's accesses into
// groups delimited by the barriers that close groups for the given test
// kind under the model (closedByModel — store barriers close store-test
// groups; load barriers close load-test groups; full barriers close both).
// accs is accessesOf(events); each group, passed to fn in order, is a
// subslice of it.
func groupByBarrier(events []trace.Event, accs []groupAccess, test TestKind, mm *memmodel.Table, fn func(g []groupAccess)) {
	start, n := 0, 0 // the open group is accs[start:n]
	for i := range events {
		if !events[i].Barrier {
			n++
			continue
		}
		if closedByModel(test, &events[i].Bar, mm) {
			if n > start {
				fn(accs[start:n:n])
			}
			start = n
		}
	}
	if n > start {
		fn(accs[start:n:n])
	}
}

// hintsForGroup is Step 3 of Algorithm 1: slide the hypothetical barrier
// through the group while the scheduling point stays FIXED at the group
// boundary. For a store test the scheduling point is the group's last
// access (the access whose commit the observer must see while earlier
// stores are still delayed); the hypothetical barrier starts just above it
// and moves upward, shrinking the delayed prefix. For a load test the
// scheduling point is the group's first load (it reads the updated value,
// Fig. 5b) and the barrier moves downward, shrinking the versioned suffix.
// The group's hints are appended to dst.
func (sc *Scratch) hintsForGroup(dst []*Hint, reorderer int, test TestKind, g []groupAccess, mm *memmodel.Table) []*Hint {
	first := len(dst)
	emit := func(test TestKind, sched groupAccess, reorder []trace.InstrID) {
		if len(reorder) == 0 {
			return
		}
		// Skip duplicates of the group's previous emission (site dedup
		// can make consecutive prefixes identical).
		if n := len(dst); n > first && sameSites(dst[n-1].Reorder, reorder) &&
			dst[n-1].Sched == sched.instr && dst[n-1].Test == test {
			return
		}
		dst = append(dst, &Hint{
			Reorderer: reorderer,
			Test:      test,
			Sched:     sched.instr,
			SchedOcc:  sched.occ,
			SchedKind: sched.kind,
			Reorder:   slices.Clone(reorder),
		})
	}
	if test == StoreBarrierTest {
		if len(g) < 2 {
			return dst
		}
		sched := g[len(g)-1]
		if mm.StoreStoreOrdered() && sched.kind != trace.Load {
			// FIFO store buffer: earlier stores cannot become visible
			// after a later store, so an S-S hint can never fire.
			return dst
		}
		// Hypothetical barrier positions: between g[end-1] and the
		// scheduling access, moving upward.
		for end := len(g) - 1; end > 0; end-- {
			emit(StoreBarrierTest, sched, sc.collectKinds(g[:end], trace.Store, sched.instr))
		}
		return dst
	}
	if len(g) < 2 || g[0].kind != trace.Load {
		// The access reading the "new" side of a load-load reordering
		// must be a load; groups led by a store contribute no
		// load-test hints (their loads are covered by neighbouring
		// groups' iterations).
		return dst
	}
	sched := g[0]
	// Hypothetical barrier positions: just after the scheduling load,
	// moving downward.
	for start := 1; start < len(g); start++ {
		emit(LoadBarrierTest, sched, sc.collectKinds(g[start:], trace.Load, sched.instr))
	}
	return dst
}

// sameSites reports whether two site slices are identical.
func sameSites(a, b []trace.InstrID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// collectKinds returns the deduplicated instruction sites of the given kind,
// excluding the scheduling-point site itself (a directive on it would also
// reorder the scheduling access, defeating the test). The result is scratch
// that the next call overwrites.
func (sc *Scratch) collectKinds(g []groupAccess, kind trace.AccessKind, exclude trace.InstrID) []trace.InstrID {
	if sc.seen == nil {
		sc.seen = make(map[trace.InstrID]bool)
	}
	seen, out := sc.seen, sc.sites[:0]
	clear(seen)
	for _, a := range g {
		if a.kind != kind || a.instr == exclude || seen[a.instr] {
			continue
		}
		seen[a.instr] = true
		out = append(out, a.instr)
	}
	sc.sites = out
	return out
}
