package syzlang

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testTarget() *Target {
	return NewTarget([]*SyscallDef{
		{Name: "sock_open", Module: "m", Ret: "sock"},
		{Name: "sock_bind", Module: "m",
			Args: []ArgType{ResourceArg{Kind: "sock"}, IntRange{Min: 1, Max: 10}}},
		{Name: "sock_send", Module: "m",
			Args: []ArgType{ResourceArg{Kind: "sock"}, Flags{Vals: []uint64{1, 2, 4}}}},
		{Name: "queue_make", Module: "m", Ret: "queue"},
		{Name: "queue_push", Module: "m",
			Args: []ArgType{ResourceArg{Kind: "queue"}, ResourceArg{Kind: "sock"}}},
	})
}

// valid checks a program's structural invariants: resource refs point
// backwards at producers of the right kind.
func valid(t *Target, p *Program) bool {
	for ci, c := range p.Calls {
		if len(c.Args) != len(c.Def.Args) {
			return false
		}
		for ai, a := range c.Args {
			if !a.Res {
				continue
			}
			ra, ok := c.Def.Args[ai].(ResourceArg)
			if !ok || a.Ref >= ci || a.Ref < 0 {
				return false
			}
			if p.Calls[a.Ref].Def.Ret != ra.Kind {
				return false
			}
		}
	}
	return true
}

// TestGenerateValid: generated programs always respect resource
// dependencies (the paper's "valid STIs").
func TestGenerateValid(t *testing.T) {
	tg := testTarget()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := tg.Generate(r, 5)
		if !valid(tg, p) {
			t.Fatalf("invalid program:\n%s", p)
		}
		if len(p.Calls) < 5 {
			t.Fatalf("short program: %d calls", len(p.Calls))
		}
	}
}

// TestGenerateInsertsProducers: a call needing a resource gets a producer
// prepended automatically.
func TestGenerateInsertsProducers(t *testing.T) {
	tg := testTarget()
	r := rand.New(rand.NewSource(2))
	sawProducer := false
	for i := 0; i < 50; i++ {
		p := &Program{}
		tg.appendCall(p, tg.Lookup("queue_push"), r, 2)
		if len(p.Calls) >= 3 && p.Calls[len(p.Calls)-1].Def.Name == "queue_push" {
			sawProducer = true
			if !valid(tg, p) {
				t.Fatalf("invalid producer chain:\n%s", p)
			}
		}
	}
	if !sawProducer {
		t.Fatal("producers never inserted")
	}
}

// TestMutatePreservesValidity: any chain of mutations keeps the program
// valid.
func TestMutatePreservesValidity(t *testing.T) {
	tg := testTarget()
	r := rand.New(rand.NewSource(3))
	p := tg.Generate(r, 4)
	for i := 0; i < 300; i++ {
		p = tg.Mutate(r, p)
		if !valid(tg, p) {
			t.Fatalf("mutation %d broke validity:\n%s", i, p)
		}
	}
}

// TestSerializeRoundTrip: String -> Parse is the identity on structure.
func TestSerializeRoundTrip(t *testing.T) {
	tg := testTarget()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		p := tg.Generate(r, 4)
		q, err := tg.Parse(p.String())
		if err != nil {
			t.Fatalf("parse failed: %v\n%s", err, p)
		}
		if p.String() != q.String() {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", p, q)
		}
	}
}

// TestAppendKey: Key is AppendKey into an empty buffer, AppendKey leaves
// what dst already held in place, and the key pins resource wiring and
// hex constants.
func TestAppendKey(t *testing.T) {
	p, err := testTarget().Parse("r0 = sock_open()\nsock_bind(r0, 0xa)\n")
	if err != nil {
		t.Fatal(err)
	}
	const want = "sock_open()\nsock_bind(r0,a)\n"
	if got := p.Key(); got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	buf := p.AppendKey([]byte("prefix:"))
	if got := string(buf); got != "prefix:"+want {
		t.Errorf("AppendKey = %q", got)
	}
	if got := string(p.AppendKey(buf[:0])); got != want {
		t.Errorf("AppendKey into a reused buffer = %q", got)
	}
}

// TestParseErrors: malformed sources are rejected with useful errors.
func TestParseErrors(t *testing.T) {
	tg := testTarget()
	cases := []struct {
		src, want string
	}{
		{"nonsense(", "malformed"},
		{"no_such_call()", "unknown syscall"},
		{"sock_bind(r9, 0x1)", "undefined resource"},
		{"sock_bind(0x0)", "wants 2 args"},
		{"sock_bind(0x0, zz)", "bad value"},
	}
	for _, c := range cases {
		if _, err := tg.Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

// TestParseComments: comments and blank lines are ignored.
func TestParseComments(t *testing.T) {
	tg := testTarget()
	p, err := tg.Parse("# seed\n\nr0 = sock_open()\n# mid\nsock_bind(r0, 0x5)\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Calls) != 2 {
		t.Fatalf("calls = %d", len(p.Calls))
	}
}

// TestDeleteCallFixesRefs: removing a producer rewrites dependent args to
// constants and shifts later refs.
func TestDeleteCallFixesRefs(t *testing.T) {
	tg := testTarget()
	p, err := tg.Parse("r0 = sock_open()\nr1 = sock_open()\nsock_bind(r1, 0x2)\n")
	if err != nil {
		t.Fatal(err)
	}
	tg.deleteCall(p, 0)
	if !valid(tg, p) {
		t.Fatalf("delete broke validity:\n%s", p)
	}
	if len(p.Calls) != 2 || !p.Calls[1].Args[0].Res || p.Calls[1].Args[0].Ref != 0 {
		t.Fatalf("refs not shifted:\n%s", p)
	}
	tg.deleteCall(p, 0)
	if p.Calls[0].Args[0].Res {
		t.Fatalf("dangling ref not cleared:\n%s", p)
	}
}

// TestCloneIndependence: mutating a clone leaves the original untouched.
func TestCloneIndependence(t *testing.T) {
	tg := testTarget()
	p, _ := tg.Parse("r0 = sock_open()\nsock_bind(r0, 0x2)\n")
	q := p.Clone()
	q.Calls[1].Args[1].Val = 99
	if p.Calls[1].Args[1].Val == 99 {
		t.Fatal("clone aliases the original")
	}
}

// TestArgGeneration: generated constants respect their types.
func TestArgGeneration(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ir := IntRange{Min: 3, Max: 7}
	for i := 0; i < 100; i++ {
		if v := ir.generate(r); v < 3 || v > 7 {
			t.Fatalf("IntRange generated %d", v)
		}
	}
	fl := Flags{Vals: []uint64{8, 16}}
	for i := 0; i < 100; i++ {
		if v := fl.generate(r); v != 8 && v != 16 {
			t.Fatalf("Flags generated %d", v)
		}
	}
}

// TestPropertyGenerateMutateParse: the full pipeline holds for arbitrary
// seeds.
func TestPropertyGenerateMutateParse(t *testing.T) {
	tg := testTarget()
	f := func(seed int64, muts uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := tg.Generate(r, 3)
		for i := 0; i < int(muts%10); i++ {
			p = tg.Mutate(r, p)
		}
		if !valid(tg, p) {
			return false
		}
		q, err := tg.Parse(p.String())
		return err == nil && q.String() == p.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNames lists templates deterministically.
func TestNames(t *testing.T) {
	tg := testTarget()
	names := tg.Names()
	if len(names) != 5 || names[0] != "queue_make" {
		t.Fatalf("names = %v", names)
	}
}

// TestModuleIndex: Modules and GenerateFocused build their index once,
// from any number of goroutines at a time, and draw exactly what a serial
// first use of another target over the same templates draws.
func TestModuleIndex(t *testing.T) {
	defs := []*SyscallDef{
		{Name: "b_open", Module: "b", Ret: "fd"},
		{Name: "a_op", Module: "a"},
		{Name: "b_write", Module: "b", Args: []ArgType{ResourceArg{Kind: "fd"}, IntRange{Min: 0, Max: 9}}},
		{Name: "c_op", Module: "c", Args: []ArgType{IntRange{Min: 0, Max: 9}}},
	}
	focus := []string{"b", "a", "c", "missing"}
	ref := NewTarget(defs)
	want := make([]string, len(focus))
	for i, m := range focus {
		p := ref.GenerateFocused(rand.New(rand.NewSource(int64(i))), 6, m)
		for _, c := range p.Calls {
			if m != "missing" && c.Def.Module != m {
				t.Fatalf("focused on %q drew %s from module %q", m, c.Def.Name, c.Def.Module)
			}
		}
		want[i] = p.String()
	}
	if got := strings.Join(ref.Modules(), ","); got != "a,b,c" {
		t.Fatalf("Modules() = %s, want a,b,c", got)
	}

	tg := NewTarget(defs)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			if got := strings.Join(tg.Modules(), ","); got != "a,b,c" {
				t.Errorf("goroutine %d: Modules() = %s", g, got)
			}
			i := g % len(focus)
			p := tg.GenerateFocused(rand.New(rand.NewSource(int64(i))), 6, focus[i])
			if p.String() != want[i] {
				t.Errorf("goroutine %d: focused on %q drew\n%s\nwant\n%s", g, focus[i], p, want[i])
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
