// Package modules contains the simulated-kernel bug corpus: one file per
// Linux subsystem the paper's evaluation exercises. Each module reproduces
// the shared-memory protocol of the corresponding subsystem and the exact
// missing-barrier bug the paper found (Table 3) or reproduced (Table 4),
// behind a named bug switch that removes the fixing barrier — the moral
// equivalent of reverting the fix patch (§6.2).
//
// Modules are written against the instrumented access API of package
// kernel; every access site carries a stable InstrID so scheduling hints
// and bug reports can name the exact instruction (and thus the hypothetical
// barrier location).
//
// Authoring a module: its state is one struct type, and its syscall
// implementations are that type's methods, listed once in a package-level
// call table in Defs order (method expressions, so the table is static
// data, not heap), each named after its def without the module prefix
// (tls_get_error is getError), which lets the tests check the order. The
// type's Call method indexes the table with the def's Nr, which register
// assigns. ModuleInfo.New builds the state struct
// and does the module's kernel-side set-up (RegisterFn, boot-time kmem
// allocations) and nothing else: no per-syscall value is built per
// instance, so a run on a recycled kernel pays one allocation per module.
// Functions handed to RegisterFn are package functions or non-capturing
// literals for the same reason.
package modules

import (
	"fmt"
	"sort"
	"strings"

	"ozz/internal/kernel"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// BugSet selects which bug switches are active (barrier removed).
type BugSet map[string]bool

// Bugs builds a BugSet from switch names.
func Bugs(names ...string) BugSet {
	s := make(BugSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Has reports whether the switch is active.
func (s BugSet) Has(name string) bool { return s[name] }

// Instance is a constructed module: its state, bound to one kernel.
type Instance interface {
	// Call executes the module's syscall number nr (the def's Nr) on
	// behalf of task t.
	Call(nr int, t *kernel.Task, args []uint64) uint64
}

// BugInfo documents one bug of the corpus and maps it to the paper's
// evaluation rows.
type BugInfo struct {
	// ID is the paper's row id, e.g. "T3#9" (Table 3) or "T4#2" (Table 4).
	ID string
	// Switch is the bug-switch name enabling it, e.g. "tls:sk_prot_wmb".
	Switch string
	// Module is the providing module.
	Module string
	// Subsystem is the paper's subsystem label.
	Subsystem string
	// KernelVersion is the paper's kernel version for the bug.
	KernelVersion string
	// Title is the expected crash title (dedup key) when triggered; empty
	// for soft-oracle bugs.
	Title string
	// SoftTitle is the expected soft-report title for bugs whose symptom
	// is not a crash (Table 4 #8).
	SoftTitle string
	// Type is the reordering type: "S-S", "S-L", or "L-L". A bug whose
	// missing barrier is a full smp_mb can manifest through more than one
	// reordering; such entries list the acceptable types separated by
	// "/" (e.g. "S-L/S-S").
	Type string
	// Status is the paper's status column (Fixed/Reported/Confirmed).
	Status string
	// Table is 3 or 4 (0 for extras such as the Rust example).
	Table int
	// OFencePattern reports whether the bug falls inside OFence's
	// paired-barrier patterns (§6.4): true when the buggy code contains
	// one half of a barrier pair that static matching could flag.
	OFencePattern bool
	// Expected reproduction outcome for Table 4 ("yes", "no", "partial").
	Repro string
	// Note is free-form (e.g. why T4#6 needs a cross-CPU migration).
	Note string
	// Strategy once named a non-default engine strategy the bug needed.
	// No bug sets it: the OOO strategy migrates at migration-sensitive
	// scheduling points itself, so every bug reproduces under it.
	//
	// Deprecated: always empty; kept only because the repository
	// benchmark still reads it.
	Strategy string
}

// ModuleInfo describes one module: its templates, bugs, and constructor.
type ModuleInfo struct {
	Name string
	Defs []*syzlang.SyscallDef
	Bugs []BugInfo
	// Seeds are serialized programs known to reach the module's barrier
	// sites — the analogue of the syzkaller-corpus seeds of §6.1/§6.2.
	Seeds []string
	// New constructs a fresh instance over k with the given switches: the
	// module's state and its kernel-side set-up, nothing per syscall.
	New func(k *kernel.Kernel, bugs BugSet) Instance
}

// registry of all modules, keyed by name; populated by each module file's
// init.
var registry = map[string]*ModuleInfo{}

func register(m *ModuleInfo) {
	if _, dup := registry[m.Name]; dup {
		panic("duplicate module " + m.Name)
	}
	for i, d := range m.Defs {
		d.Nr = i
	}
	registry[m.Name] = m
}

// All returns every registered module, sorted by name.
func All() []*ModuleInfo {
	out := make([]*ModuleInfo, 0, len(registry))
	for _, m := range registry {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the module, or nil.
func ByName(name string) *ModuleInfo { return registry[name] }

// AllBugs returns every BugInfo across modules, sorted by ID.
func AllBugs() []BugInfo {
	var out []BugInfo
	for _, m := range All() {
		out = append(out, m.Bugs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FindBug returns the BugInfo with the given switch name.
func FindBug(sw string) (BugInfo, bool) {
	for _, m := range All() {
		for _, b := range m.Bugs {
			if b.Switch == sw {
				return b, true
			}
		}
	}
	return BugInfo{}, false
}

// Target assembles the syzlang target for the named modules (all modules if
// names is empty).
func Target(names ...string) *syzlang.Target {
	var defs []*syzlang.SyscallDef
	if len(names) == 0 {
		for _, m := range All() {
			defs = append(defs, m.Defs...)
		}
	} else {
		for _, n := range names {
			m := registry[n]
			if m == nil {
				panic("unknown module " + n)
			}
			defs = append(defs, m.Defs...)
		}
	}
	return syzlang.NewTarget(defs)
}

// Seeds returns the seed-program sources of the named modules (all if empty).
func Seeds(names ...string) []string {
	var out []string
	if len(names) == 0 {
		for _, m := range All() {
			out = append(out, m.Seeds...)
		}
		return out
	}
	for _, n := range names {
		if m := registry[n]; m != nil {
			out = append(out, m.Seeds...)
		}
	}
	return out
}

// Set is the modules built over one kernel: the syscall table a run
// dispatches through. Names lists the modules and Insts holds their
// instances, in the same order. Build reuses Insts' storage, so a
// recycled Set builds a run's modules without allocating beyond their
// state.
type Set struct {
	Names []string
	Insts []Instance
}

// Build replaces s's instances with fresh ones, over k, of the modules
// s.Names lists. It panics on an unknown name.
func (s *Set) Build(k *kernel.Kernel, bugs BugSet) {
	clear(s.Insts)
	s.Insts = s.Insts[:0]
	for _, n := range s.Names {
		m := registry[n]
		if m == nil {
			panic("unknown module " + n)
		}
		s.Insts = append(s.Insts, m.New(k, bugs))
	}
}

// Lookup returns the instance serving calls of def d — call it with
// d.Nr — or nil when d's module is not in the set.
func (s *Set) Lookup(d *syzlang.SyscallDef) Instance {
	for i, n := range s.Names {
		if n == d.Module {
			return s.Insts[i]
		}
	}
	return nil
}

// Build constructs fresh instances of the named modules over k into a new
// Set. An empty name list builds every registered module.
func Build(k *kernel.Kernel, bugs BugSet, names ...string) *Set {
	if len(names) == 0 {
		for _, m := range All() {
			names = append(names, m.Name)
		}
	}
	s := &Set{Names: names}
	s.Build(k, bugs)
	return s
}

// --- instruction-site registry ---------------------------------------------

var siteNames = map[trace.InstrID]string{}

// site registers a named instruction site and returns its id. Modules use
// it to give every access site a stable, report-friendly identity such as
// "tls_init:WRITE_ONCE(sk->sk_prot)".
func site(id trace.InstrID, name string) trace.InstrID {
	if prev, dup := siteNames[id]; dup {
		panic(fmt.Sprintf("duplicate site id %d: %s vs %s", id, prev, name))
	}
	siteNames[id] = name
	return id
}

// SiteName returns the symbolic name of an instruction site ("instr#N" for
// unregistered ids).
func SiteName(id trace.InstrID) string {
	if n, ok := siteNames[id]; ok {
		return n
	}
	return fmt.Sprintf("instr#%d", id)
}

// Module site-id bases: each module owns a 16-bit space.
const (
	watchqueueBase trace.InstrID = (iota + 1) << 16
	tlsBase
	rdsBase
	xskBase
	vmciBase
	bpfBase
	smcBase
	gsmBase
	vlanBase
	fdtableBase
	sbitmapBase
	nbdBase
	unixBase
	rustBase
	vfsBase
)

// SiteByName returns the first registered instruction site whose symbolic
// name contains substr (tooling/examples; 0 if none). Names are unique
// enough that a distinctive substring identifies the site.
func SiteByName(substr string) trace.InstrID {
	var best trace.InstrID
	for id, name := range siteNames {
		if strings.Contains(name, substr) {
			if best == 0 || id < best {
				best = id
			}
		}
	}
	return best
}
