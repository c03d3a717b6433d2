// Package kmem implements the simulated kernel memory: a word-addressed
// address space, a slab-style allocator, and a KASAN-like sanitizer
// (redzones, a free quarantine, and null/wild pointer detection).
//
// All shared state of the simulated kernel lives in this memory. OEMU
// (package oemu) interposes on every access to this memory to emulate
// out-of-order execution; the sanitizer here provides the in-kernel
// bug-detecting oracle the paper's in-vivo design relies on (§3).
package kmem

import (
	"cmp"
	"fmt"
	"slices"

	"ozz/internal/trace"
)

// WordSize is the size in bytes of one addressable slot.
const WordSize = 8

// NullPage is the size of the unmapped page at address zero. Any access
// below this address is a NULL pointer dereference.
const NullPage trace.Addr = 0x1000

// heapBase is the first address handed out by the allocator. The gap between
// NullPage and heapBase is unmapped ("wild") address space.
const heapBase trace.Addr = 0x10000

// SlotState describes the sanitizer state of one memory word.
type SlotState uint8

const (
	// Unmapped: never allocated. Access is a wild-pointer fault (or a NULL
	// dereference if below NullPage).
	Unmapped SlotState = iota
	// Valid: inside a live allocation (or statically mapped). Access OK.
	Valid
	// Redzone: guard slot adjacent to an allocation. Access is
	// out-of-bounds.
	Redzone
	// Freed: inside a freed allocation still in quarantine. Access is a
	// use-after-free.
	Freed
)

// String returns the KASAN-style name of the state.
func (s SlotState) String() string {
	switch s {
	case Unmapped:
		return "unmapped"
	case Valid:
		return "valid"
	case Redzone:
		return "redzone"
	case Freed:
		return "freed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// FaultKind classifies a detected invalid access.
type FaultKind uint8

const (
	// FaultNone means the access was valid.
	FaultNone FaultKind = iota
	// FaultNull is a NULL pointer dereference (address inside the null
	// page). Title format mirrors Linux: "BUG: unable to handle kernel
	// NULL pointer dereference".
	FaultNull
	// FaultWild is an access to unmapped memory outside the null page
	// ("general protection fault").
	FaultWild
	// FaultOOB is a redzone access ("KASAN: slab-out-of-bounds").
	FaultOOB
	// FaultUAF is an access to freed memory ("KASAN: use-after-free" /
	// "KASAN: null-ptr-deref" depending on context).
	FaultUAF
)

// String returns the oracle name of the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNull:
		return "null-ptr-deref"
	case FaultWild:
		return "general-protection-fault"
	case FaultOOB:
		return "slab-out-of-bounds"
	case FaultUAF:
		return "use-after-free"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault describes an invalid memory access detected by the sanitizer.
type Fault struct {
	Kind  FaultKind
	Addr  trace.Addr
	Acc   trace.AccessKind
	Instr trace.InstrID
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("%s %s at 0x%x (instr %d)", f.Kind, f.Acc, uint64(f.Addr), f.Instr)
}

// object tracks one live or quarantined allocation.
type object struct {
	base  trace.Addr // first data word
	words int        // data words (excluding redzones)
}

// pageWords is the number of 64-bit slots per storage page. Pages keep the
// hot paths (Read/Write/Check) off Go maps: one map lookup per page, array
// indexing within.
const pageWords = 512

// page is one storage unit: values plus per-slot sanitizer state.
type page struct {
	vals  [pageWords]uint64
	state [pageWords]SlotState
	// lo and hi bound the slots written since the last Reset; lo == hi
	// while the page is clean, and off its memory's dirty list.
	lo, hi uint16
}

// Memory is the simulated kernel address space plus its sanitizer state.
// It is not safe for concurrent use; the deterministic scheduler guarantees
// a single running task.
type Memory struct {
	pages map[uint64]*page
	// dirty holds the pages written since the last Reset (by fill or
	// Write), in first-write order: the only pages Reset must zero, and
	// only between their lo and hi. A page only read or checked is still
	// all zero.
	dirty []*page
	// lastIdx/lastPage cache the most recently touched page (locality is
	// near-perfect: objects are contiguous).
	lastIdx  uint64
	lastPage *page

	next trace.Addr // allocator bump pointer
	// objects are the live allocations in base order: the allocator
	// bumps, so each new object goes last.
	objects []object

	quarantine    []object
	quarantineCap int

	// Sanitize toggles access checking. It is on by default; Table 5's
	// uninstrumented baseline turns it off together with OEMU.
	Sanitize bool
}

// New returns an empty memory with sanitizing enabled.
func New() *Memory {
	return &Memory{
		pages:         make(map[uint64]*page),
		next:          heapBase,
		quarantineCap: 64,
		Sanitize:      true,
	}
}

// Reset returns the memory to its freshly-constructed state — empty
// allocator, clean sanitizer state, sanitizing on — while retaining the
// page storage already allocated, so a recycled Memory serves its next
// execution without rebuilding pages. A reset Memory is observationally
// identical to New(): every slot reads 0 and is Unmapped, the bump pointer
// restarts at heapBase, and the quarantine is empty. It zeroes only the
// slots written since the last Reset.
func (m *Memory) Reset() {
	for _, p := range m.dirty {
		clear(p.vals[p.lo:p.hi])
		clear(p.state[p.lo:p.hi])
		p.lo, p.hi = 0, 0
	}
	m.dirty = m.dirty[:0]
	m.lastIdx, m.lastPage = 0, nil
	m.next = heapBase
	m.objects = m.objects[:0]
	m.quarantine = m.quarantine[:0]
	m.Sanitize = true
}

// pageFor returns the page containing addr, allocating it if needed.
// Callers that write the page mark it with markDirty.
func (m *Memory) pageFor(addr trace.Addr) (*page, int) {
	word := uint64(addr) / WordSize
	idx, off := word/pageWords, int(word%pageWords)
	if m.lastPage != nil && m.lastIdx == idx {
		return m.lastPage, off
	}
	p := m.pages[idx]
	if p == nil {
		p = &page{}
		m.pages[idx] = p
	}
	m.lastIdx, m.lastPage = idx, p
	return p, off
}

// markDirty records a write to slots [off, end) of p, putting p on the
// dirty list at its first write since the last Reset.
func (m *Memory) markDirty(p *page, off, end int) {
	lo, hi := uint16(off), uint16(end)
	switch {
	case p.lo == p.hi:
		m.dirty = append(m.dirty, p)
		p.lo, p.hi = lo, hi
	case lo < p.lo:
		p.lo = lo
		p.hi = max(p.hi, hi)
	case hi > p.hi:
		p.hi = hi
	}
}

// Poison patterns: what kmalloc leaves in a new object, and what kfree
// writes over a freed one.
const (
	allocPoison uint64 = 0xdead4ead_deadbeef
	freePoison  uint64 = 0xdeadbeef_deadbeef
)

// Alloc allocates n words surrounded by one redzone word on each side and
// returns the address of the first data word. Memory content is NOT zeroed:
// it holds whatever garbage pattern Poison writes, mirroring kmalloc.
func (m *Memory) Alloc(n int) trace.Addr {
	return m.alloc(n, allocPoison)
}

// AllocZeroed is kzalloc: Alloc plus zeroing. A request for no words
// gets Alloc's rounded-up word as Alloc leaves it, poisoned.
func (m *Memory) AllocZeroed(n int) trace.Addr {
	if n <= 0 {
		return m.Alloc(n)
	}
	return m.alloc(n, 0)
}

// alloc is Alloc with the data words set to v.
func (m *Memory) alloc(n int, v uint64) trace.Addr {
	if n <= 0 {
		n = 1
	}
	m.fill(m.next, 1, Redzone, false, 0) // leading redzone
	base := m.next + WordSize
	m.fill(base, n, Valid, true, v)
	m.next = base + trace.Addr(n*WordSize)
	m.fill(m.next, 1, Redzone, false, 0) // trailing redzone
	m.next += WordSize
	m.objects = append(m.objects, object{base: base, words: n})
	return base
}

// fill sets the sanitizer state of the n words from addr on to st and,
// when write is set, their values to v: one page lookup per page, not
// per word.
func (m *Memory) fill(addr trace.Addr, n int, st SlotState, write bool, v uint64) {
	for n > 0 {
		p, off := m.pageFor(addr)
		k := min(n, pageWords-off)
		m.markDirty(p, off, off+k)
		states := p.state[off : off+k]
		for i := range states {
			states[i] = st
		}
		if write {
			vals := p.vals[off : off+k]
			for i := range vals {
				vals[i] = v
			}
		}
		addr += trace.Addr(k * WordSize)
		n -= k
	}
}

// find returns the index in m.objects of the live object at base.
func (m *Memory) find(base trace.Addr) (int, bool) {
	return slices.BinarySearchFunc(m.objects, base, func(o object, base trace.Addr) int {
		return cmp.Compare(o.base, base)
	})
}

// Free releases the object at base. The object enters the quarantine:
// its slots are marked Freed (any later access is a use-after-free) until
// the quarantine overflows, at which point the slots become reusable.
// Freeing an address that is not a live object base is an invalid free.
func (m *Memory) Free(base trace.Addr) error {
	i, ok := m.find(base)
	if !ok {
		return fmt.Errorf("invalid-free at 0x%x", uint64(base))
	}
	obj := m.objects[i]
	m.objects = slices.Delete(m.objects, i, i+1)
	m.fill(base, obj.words, Freed, true, freePoison)
	m.quarantine = append(m.quarantine, obj)
	if len(m.quarantine) > m.quarantineCap {
		old := m.quarantine[0]
		// Shift in place so the quarantine keeps one backing array.
		m.quarantine = m.quarantine[:copy(m.quarantine, m.quarantine[1:])]
		m.fill(old.base, old.words, Unmapped, false, 0)
	}
	return nil
}

// Check validates an access against the sanitizer state. It returns nil if
// the access is valid or sanitizing is disabled.
func (m *Memory) Check(instr trace.InstrID, addr trace.Addr, kind trace.AccessKind) *Fault {
	if !m.Sanitize {
		return nil
	}
	if addr < NullPage {
		return &Fault{Kind: FaultNull, Addr: addr, Acc: kind, Instr: instr}
	}
	p, off := m.pageFor(addr)
	switch p.state[off] {
	case Valid:
		return nil
	case Redzone:
		return &Fault{Kind: FaultOOB, Addr: addr, Acc: kind, Instr: instr}
	case Freed:
		return &Fault{Kind: FaultUAF, Addr: addr, Acc: kind, Instr: instr}
	default:
		return &Fault{Kind: FaultWild, Addr: addr, Acc: kind, Instr: instr}
	}
}

// Read returns the committed value at addr. It performs no sanitizer check;
// callers (OEMU / the kernel access layer) check first.
func (m *Memory) Read(addr trace.Addr) uint64 {
	p, off := m.pageFor(addr)
	return p.vals[off]
}

// Write commits a value at addr. No sanitizer check (see Read).
func (m *Memory) Write(addr trace.Addr, v uint64) {
	p, off := m.pageFor(addr)
	m.markDirty(p, off, off+1)
	p.vals[off] = v
}
