// Package syzlang is a miniature of syzkaller's Syzlang (§4.2): system-call
// templates with typed arguments and resources, plus program generation,
// mutation, and (de)serialization. OZZ's first phase draws single-threaded
// inputs (STIs) from these templates, preserving resource dependencies
// across calls (e.g. get a socket from tls_socket and pass it to
// tls_setsockopt).
package syzlang

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ResourceKind names a kernel resource type flowing between calls (a file
// descriptor, a socket, a queue id, ...).
type ResourceKind string

// ArgType describes one argument slot of a syscall template.
type ArgType interface {
	// Generate draws a concrete argument for this slot.
	generate(r *rand.Rand) uint64
	// String renders the type for template listings.
	String() string
}

// IntRange is an integer argument drawn uniformly from [Min, Max].
type IntRange struct {
	Min, Max uint64
}

func (a IntRange) generate(r *rand.Rand) uint64 {
	if a.Max <= a.Min {
		return a.Min
	}
	return a.Min + uint64(r.Int63n(int64(a.Max-a.Min+1)))
}

// String implements ArgType.
func (a IntRange) String() string { return fmt.Sprintf("int[%d:%d]", a.Min, a.Max) }

// Flags is an argument drawn from a fixed value set.
type Flags struct {
	Vals []uint64
}

func (a Flags) generate(r *rand.Rand) uint64 {
	if len(a.Vals) == 0 {
		return 0
	}
	return a.Vals[r.Intn(len(a.Vals))]
}

// String implements ArgType.
func (a Flags) String() string { return fmt.Sprintf("flags%v", a.Vals) }

// ResourceArg is an argument that must be the result of an earlier call
// producing Kind.
type ResourceArg struct {
	Kind ResourceKind
}

func (a ResourceArg) generate(r *rand.Rand) uint64 { return 0 }

// String implements ArgType.
func (a ResourceArg) String() string { return string(a.Kind) }

// SyscallDef is one template.
type SyscallDef struct {
	// Name is globally unique, e.g. "tls_setsockopt".
	Name string
	// Module is the subsystem providing the call.
	Module string
	// Nr is the call's number within its module: its index in the
	// module's call table, which dispatch uses in place of Name.
	Nr int
	// Args are the argument slots.
	Args []ArgType
	// Ret, when non-empty, is the resource kind the call produces.
	Ret ResourceKind
}

// String renders the template signature.
func (d *SyscallDef) String() string {
	parts := make([]string, len(d.Args))
	for i, a := range d.Args {
		parts[i] = a.String()
	}
	sig := fmt.Sprintf("%s(%s)", d.Name, strings.Join(parts, ", "))
	if d.Ret != "" {
		sig += " -> " + string(d.Ret)
	}
	return sig
}

// Arg is a concrete argument of a generated call: either a constant or a
// reference to the result of an earlier call in the program.
type Arg struct {
	Res bool
	// Ref is the index of the producing call when Res.
	Ref int
	// Val is the constant value when !Res.
	Val uint64
}

// Call is one concrete system call of a program.
type Call struct {
	Def  *SyscallDef
	Args []Arg
}

// Program is a single-threaded input (STI): a sequence of calls whose
// resource references point backwards.
type Program struct {
	Calls []Call
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	q := &Program{Calls: make([]Call, len(p.Calls))}
	for i, c := range p.Calls {
		args := make([]Arg, len(c.Args))
		copy(args, c.Args)
		q.Calls[i] = Call{Def: c.Def, Args: args}
	}
	return q
}

// Key returns a canonical serialization of the program for use as a cache
// key: two programs produce the same key iff they have the same call
// sequence with the same constant arguments and resource wiring — exactly
// the condition under which a deterministic execution environment yields
// identical results. It is cheaper than String (no assignment prefixes,
// no formatting verbs) but just as injective.
func (p *Program) Key() string {
	return string(p.AppendKey(make([]byte, 0, len(p.Calls)*32)))
}

// AppendKey appends p's Key to dst and returns the extended slice, so a
// caller that keeps dst across programs encodes keys without allocating.
func (p *Program) AppendKey(dst []byte) []byte {
	for _, c := range p.Calls {
		dst = append(dst, c.Def.Name...)
		dst = append(dst, '(')
		for j, a := range c.Args {
			if j > 0 {
				dst = append(dst, ',')
			}
			if a.Res {
				dst = append(dst, 'r')
				dst = strconv.AppendInt(dst, int64(a.Ref), 10)
			} else {
				dst = strconv.AppendUint(dst, a.Val, 16)
			}
		}
		dst = append(dst, ")\n"...)
	}
	return dst
}

// String serializes the program in a syzlang-like text form:
//
//	r0 = tls_socket()
//	tls_setsockopt(r0, 0x1)
func (p *Program) String() string {
	var sb strings.Builder
	for i, c := range p.Calls {
		if c.Def.Ret != "" {
			fmt.Fprintf(&sb, "r%d = ", i)
		}
		parts := make([]string, len(c.Args))
		for j, a := range c.Args {
			if a.Res {
				parts[j] = fmt.Sprintf("r%d", a.Ref)
			} else {
				parts[j] = fmt.Sprintf("0x%x", a.Val)
			}
		}
		fmt.Fprintf(&sb, "%s(%s)\n", c.Def.Name, strings.Join(parts, ", "))
	}
	return sb.String()
}

// Target is a set of syscall templates available for generation — the
// paper's "predefined templates written in Syzlang".
type Target struct {
	// Defs are the templates. They must not change once the target is in
	// use: the per-module index below is built from them once.
	Defs   []*SyscallDef
	byName map[string]*SyscallDef
	// producers[kind] lists defs returning the resource kind.
	producers map[ResourceKind][]*SyscallDef

	// The module index is built on first use rather than in NewTarget,
	// because building a target is part of every campaign's set-up.
	indexOnce sync.Once
	modules   []string                 // distinct Defs modules, sorted
	byModule  map[string][]*SyscallDef // module -> its Defs, in Defs order
}

// NewTarget builds a target from templates.
func NewTarget(defs []*SyscallDef) *Target {
	t := &Target{
		Defs:      defs,
		byName:    make(map[string]*SyscallDef),
		producers: make(map[ResourceKind][]*SyscallDef),
	}
	for _, d := range defs {
		t.byName[d.Name] = d
		if d.Ret != "" {
			t.producers[d.Ret] = append(t.producers[d.Ret], d)
		}
	}
	return t
}

// Lookup returns the template by name, or nil.
func (t *Target) Lookup(name string) *SyscallDef { return t.byName[name] }

// Names returns all template names, sorted.
func (t *Target) Names() []string {
	names := make([]string, 0, len(t.byName))
	for n := range t.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// appendCall appends a concrete instance of def, first recursively appending
// producer calls for any resource argument that has no in-scope producer.
// depth bounds producer recursion.
func (t *Target) appendCall(p *Program, def *SyscallDef, r *rand.Rand, depth int) {
	args := make([]Arg, len(def.Args))
	for i, at := range def.Args {
		ra, ok := at.(ResourceArg)
		if !ok {
			args[i] = Arg{Val: at.generate(r)}
			continue
		}
		// Find an existing producer result, or create one.
		var cands []int
		for ci, c := range p.Calls {
			if c.Def.Ret == ra.Kind {
				cands = append(cands, ci)
			}
		}
		if len(cands) == 0 && depth > 0 {
			prods := t.producers[ra.Kind]
			if len(prods) > 0 {
				prod := prods[r.Intn(len(prods))]
				t.appendCall(p, prod, r, depth-1)
				cands = append(cands, len(p.Calls)-1)
			}
		}
		if len(cands) == 0 {
			args[i] = Arg{Val: 0} // no producer available: pass 0
			continue
		}
		args[i] = Arg{Res: true, Ref: cands[r.Intn(len(cands))]}
	}
	p.Calls = append(p.Calls, Call{Def: def, Args: args})
}

// Generate draws a random program of roughly n calls (producer insertion
// may add a few more).
func (t *Target) Generate(r *rand.Rand, n int) *Program {
	return t.generateFrom(r, n, t.Defs)
}

// GenerateFocused draws a program from a single module's templates —
// syzkaller's call-selection priorities similarly bias programs toward
// related calls, which is what makes concurrent pairs share state.
func (t *Target) GenerateFocused(r *rand.Rand, n int, module string) *Program {
	t.index()
	defs := t.byModule[module]
	if len(defs) == 0 {
		defs = t.Defs
	}
	return t.generateFrom(r, n, defs)
}

// Modules lists the distinct module names of the target's templates,
// sorted. The returned slice is shared by every caller and must not be
// modified.
func (t *Target) Modules() []string {
	t.index()
	return t.modules
}

// index builds the module list and per-module template lists once.
func (t *Target) index() {
	t.indexOnce.Do(func() {
		t.byModule = make(map[string][]*SyscallDef)
		for _, d := range t.Defs {
			if _, seen := t.byModule[d.Module]; !seen {
				t.modules = append(t.modules, d.Module)
			}
			t.byModule[d.Module] = append(t.byModule[d.Module], d)
		}
		sort.Strings(t.modules)
	})
}

func (t *Target) generateFrom(r *rand.Rand, n int, defs []*SyscallDef) *Program {
	p := &Program{}
	for len(p.Calls) < n {
		def := defs[r.Intn(len(defs))]
		t.appendCall(p, def, r, 2)
	}
	return p
}

// Mutate returns a mutated copy of p: one of inserting a call, deleting a
// call (fixing up references), or mutating a constant argument.
func (t *Target) Mutate(r *rand.Rand, p *Program) *Program {
	q := p.Clone()
	switch op := r.Intn(3); {
	case op == 0 || len(q.Calls) == 0:
		def := t.Defs[r.Intn(len(t.Defs))]
		t.appendCall(q, def, r, 2)
	case op == 1 && len(q.Calls) > 1:
		t.deleteCall(q, r.Intn(len(q.Calls)))
	default:
		ci := r.Intn(len(q.Calls))
		c := &q.Calls[ci]
		if len(c.Args) > 0 {
			ai := r.Intn(len(c.Args))
			if !c.Args[ai].Res {
				c.Args[ai].Val = c.Def.Args[ai].generate(r)
			}
		}
	}
	return q
}

// deleteCall removes call di, dropping dependent references (they become
// constant 0, mirroring syzkaller's arg fixup).
func (t *Target) deleteCall(p *Program, di int) {
	calls := append(p.Calls[:di:di], p.Calls[di+1:]...)
	for ci := range calls {
		for ai := range calls[ci].Args {
			a := &calls[ci].Args[ai]
			if !a.Res {
				continue
			}
			switch {
			case a.Ref == di:
				*a = Arg{Val: 0}
			case a.Ref > di:
				a.Ref--
			}
		}
	}
	p.Calls = calls
}

// Parse deserializes the text form produced by Program.String. It is used
// for seed corpora (§6.1: "we use seeds provided by Syzkaller").
func (t *Target) Parse(src string) (*Program, error) {
	p := &Program{}
	retIdx := make(map[string]int)
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line
		var retName string
		if eq := strings.Index(line, "="); eq >= 0 && strings.HasPrefix(line, "r") {
			retName = strings.TrimSpace(line[:eq])
			rest = strings.TrimSpace(line[eq+1:])
		}
		open := strings.Index(rest, "(")
		close := strings.LastIndex(rest, ")")
		if open < 0 || close < open {
			return nil, fmt.Errorf("line %d: malformed call %q", ln+1, line)
		}
		name := strings.TrimSpace(rest[:open])
		def := t.byName[name]
		if def == nil {
			return nil, fmt.Errorf("line %d: unknown syscall %q", ln+1, name)
		}
		var args []Arg
		inner := strings.TrimSpace(rest[open+1 : close])
		if inner != "" {
			for _, tok := range strings.Split(inner, ",") {
				tok = strings.TrimSpace(tok)
				if strings.HasPrefix(tok, "r") {
					idx, ok := retIdx[tok]
					if !ok {
						return nil, fmt.Errorf("line %d: undefined resource %q", ln+1, tok)
					}
					args = append(args, Arg{Res: true, Ref: idx})
					continue
				}
				v, err := strconv.ParseUint(strings.TrimPrefix(tok, "0x"), 16, 64)
				if err != nil {
					v, err = strconv.ParseUint(tok, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("line %d: bad value %q", ln+1, tok)
					}
				}
				args = append(args, Arg{Val: v})
			}
		}
		if len(args) != len(def.Args) {
			return nil, fmt.Errorf("line %d: %s wants %d args, got %d", ln+1, name, len(def.Args), len(args))
		}
		p.Calls = append(p.Calls, Call{Def: def, Args: args})
		if retName != "" {
			retIdx[retName] = len(p.Calls) - 1
		}
	}
	return p, nil
}
