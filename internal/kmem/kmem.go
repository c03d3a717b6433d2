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
	"fmt"

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
}

// Memory is the simulated kernel address space plus its sanitizer state.
// It is not safe for concurrent use; the deterministic scheduler guarantees
// a single running task.
type Memory struct {
	pages map[uint64]*page
	// lastIdx/lastPage cache the most recently touched page (locality is
	// near-perfect: objects are contiguous).
	lastIdx  uint64
	lastPage *page

	next    trace.Addr // allocator bump pointer
	objects map[trace.Addr]object

	quarantine    []object
	quarantineCap int

	// Sanitize toggles access checking. It is on by default; Table 5's
	// uninstrumented baseline turns it off together with OEMU.
	Sanitize bool

	allocs, frees uint64
}

// New returns an empty memory with sanitizing enabled.
func New() *Memory {
	return &Memory{
		pages:         make(map[uint64]*page),
		next:          heapBase,
		objects:       make(map[trace.Addr]object),
		quarantineCap: 64,
		Sanitize:      true,
	}
}

// Reset returns the memory to its freshly-constructed state — empty
// allocator, clean sanitizer state, sanitizing on — while retaining the
// page storage already allocated, so a recycled Memory serves its next
// execution without rebuilding pages. A reset Memory is observationally
// identical to New(): every slot reads 0 and is Unmapped, the bump pointer
// restarts at heapBase, and the quarantine is empty.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
	}
	m.lastIdx, m.lastPage = 0, nil
	m.next = heapBase
	clear(m.objects)
	m.quarantine = m.quarantine[:0]
	m.Sanitize = true
	m.allocs, m.frees = 0, 0
}

// pageFor returns the page containing addr, allocating it if needed.
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

// Stats reports allocation counters (used by examples and tests).
func (m *Memory) Stats() (allocs, frees uint64) { return m.allocs, m.frees }

// Alloc allocates n words surrounded by one redzone word on each side and
// returns the address of the first data word. Memory content is NOT zeroed:
// it holds whatever garbage pattern Poison writes, mirroring kmalloc.
func (m *Memory) Alloc(n int) trace.Addr {
	if n <= 0 {
		n = 1
	}
	m.setState(m.next, Redzone) // leading redzone
	m.next += WordSize
	base := m.next
	for i := 0; i < n; i++ {
		a := base + trace.Addr(i*WordSize)
		m.setState(a, Valid)
		// kmalloc does not zero: poison with a recognizable pattern.
		m.Write(a, 0xdead4ead_deadbeef)
	}
	m.next += trace.Addr(n * WordSize)
	m.setState(m.next, Redzone) // trailing redzone
	m.next += WordSize
	m.objects[base] = object{base: base, words: n}
	m.allocs++
	return base
}

// setState updates one slot's sanitizer state.
func (m *Memory) setState(addr trace.Addr, st SlotState) {
	p, off := m.pageFor(addr)
	p.state[off] = st
}

// AllocZeroed is kzalloc: Alloc plus zeroing.
func (m *Memory) AllocZeroed(n int) trace.Addr {
	a := m.Alloc(n)
	for i := 0; i < n; i++ {
		m.Write(a+trace.Addr(i*WordSize), 0)
	}
	return a
}

// Free releases the object at base. The object enters the quarantine:
// its slots are marked Freed (any later access is a use-after-free) until
// the quarantine overflows, at which point the slots become reusable.
// Freeing an address that is not a live object base is an invalid free.
func (m *Memory) Free(base trace.Addr) error {
	obj, ok := m.objects[base]
	if !ok {
		return fmt.Errorf("invalid-free at 0x%x", uint64(base))
	}
	delete(m.objects, base)
	for i := 0; i < obj.words; i++ {
		a := base + trace.Addr(i*WordSize)
		m.setState(a, Freed)
		m.Write(a, 0xdeadbeef_deadbeef) // poison freed memory
	}
	m.quarantine = append(m.quarantine, obj)
	m.frees++
	if len(m.quarantine) > m.quarantineCap {
		old := m.quarantine[0]
		// Shift in place so the quarantine keeps one backing array.
		m.quarantine = m.quarantine[:copy(m.quarantine, m.quarantine[1:])]
		for i := 0; i < old.words; i++ {
			m.setState(old.base+trace.Addr(i*WordSize), Unmapped)
		}
	}
	return nil
}

// ObjectWords returns the size in words of the live object at base, or 0.
func (m *Memory) ObjectWords(base trace.Addr) int {
	if obj, ok := m.objects[base]; ok {
		return obj.words
	}
	return 0
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
	p.vals[off] = v
}

// State exposes the sanitizer state of a slot (for tests and reports).
func (m *Memory) State(addr trace.Addr) SlotState {
	p, off := m.pageFor(addr)
	return p.state[off]
}
