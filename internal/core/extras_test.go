package core

import (
	"strings"
	"testing"

	"ozz/internal/hints"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
	"ozz/internal/trace"
)

// crashingHint finds a (program, pair, hint) triple that reproduces the
// given title, by direct enumeration over a seed program.
func crashingHint(t *testing.T, env *Env, src, title string, i, j int) (*syzlang.Program, *hints.Hint) {
	t.Helper()
	target := modules.Target(env.Modules...)
	p, err := target.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sti := env.RunSTI(p)
	if sti.Crash != nil {
		t.Fatalf("sequential crash: %v", sti.Crash)
	}
	for _, h := range hints.Calculate(sti.CallEvents[i], sti.CallEvents[j]) {
		res := env.RunMTI(MTIOpts{Prog: p, I: i, J: j, Hint: h})
		if res.Crash != nil && res.Crash.Title == title {
			return p, h
		}
	}
	t.Fatalf("no hint reproduces %q", title)
	return nil, nil
}

// TestInterruptInjectionDefeatsStoreTest is the interrupt ablation: an
// interrupt at the scheduling point drains the virtual store buffer, so the
// delayed-store reordering never becomes visible — which is why the custom
// scheduler suspends vCPUs without delivering interrupts (§3.1, §10.3).
func TestInterruptInjectionDefeatsStoreTest(t *testing.T) {
	const title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	const prog = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"

	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb"))
	p, h := crashingHint(t, env, prog, title, 1, 2)

	envInt := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb"))
	envInt.InterruptOnSwitch = true
	res := envInt.RunMTI(MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
	if res.Crash != nil {
		t.Fatalf("bug reproduced despite the interrupt flushing the buffer: %v", res.Crash)
	}
	if !res.Fired {
		t.Fatal("scheduling point did not fire")
	}
}

// TestInterruptDoesNotAffectLoadTest: versioned loads read from the global
// store history, which interrupts do not erase — the load-barrier test
// still works (only store buffering is interrupt-sensitive).
func TestInterruptDoesNotAffectLoadTest(t *testing.T) {
	const title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	const prog = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"

	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_rmb"))
	p, h := crashingHint(t, env, prog, title, 1, 2)
	if h.Test != hints.LoadBarrierTest {
		t.Skipf("triggering hint is %v, not a load test", h.Test)
	}
	envInt := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_rmb"))
	envInt.InterruptOnSwitch = true
	res := envInt.RunMTI(MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
	if res.Crash == nil {
		t.Fatal("load-barrier test must survive interrupt injection")
	}
}

// TestMinimize shrinks the rds reproducer: the 4-call seed minimizes down
// to the calls the crash genuinely needs (the socket producer, the staging
// sendmsg, and the concurrent pair member feeding the suffix consumer).
func TestMinimize(t *testing.T) {
	const title = "KASAN: slab-out-of-bounds Read in rds_loop_xmit"
	const prog = "r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\nrds_loop_xmit(r0)\n"

	env := NewEnv([]string{"rds"}, modules.Bugs("rds:clear_bit_unlock"))
	target := modules.Target("rds")
	p, err := target.Parse(prog)
	if err != nil {
		t.Fatal(err)
	}
	sti := env.RunSTI(p)
	var hit *hints.Hint
	var hi, hj int
	for _, pr := range [][2]int{{2, 3}, {1, 2}, {2, 4}} {
		for _, h := range hints.Calculate(sti.CallEvents[pr[0]], sti.CallEvents[pr[1]]) {
			res := env.RunMTI(MTIOpts{Prog: p, I: pr[0], J: pr[1], Hint: h})
			if res.Crash != nil && res.Crash.Title == title {
				hit, hi, hj = h, pr[0], pr[1]
				break
			}
		}
		if hit != nil {
			break
		}
	}
	if hit == nil {
		t.Fatal("no reproducing hint found")
	}
	minned, mi, mj := env.Minimize(p, hi, hj, hit, title)
	if len(minned.Calls) >= len(p.Calls) {
		t.Fatalf("minimization removed nothing (%d calls)", len(minned.Calls))
	}
	// The minimized program must still reproduce.
	res := env.RunMTI(MTIOpts{Prog: minned, I: mi, J: mj, Hint: hit})
	if res.Crash == nil || res.Crash.Title != title {
		t.Fatalf("minimized program does not reproduce: %v\n%s", res.Crash, minned)
	}
}

// TestDeterministicCampaign: identical configs yield identical findings and
// statistics — the determinism claim of §7's comparison with KCSAN.
func TestDeterministicCampaign(t *testing.T) {
	run := func() (Stats, []string) {
		p := NewPool(Config{
			Bugs:     modules.Bugs("tls:sk_prot_wmb", "xsk:state_wmb"),
			Seed:     11,
			UseSeeds: true,
		}, 1)
		p.Run(40)
		s := p.Stats()
		s.Perf = PerfStats{} // scheduling-dependent; excluded from comparison
		return s, p.Reports.Titles()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("titles differ: %v vs %v", t1, t2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("titles differ at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

// TestCorpusExportImport: a campaign's coverage corpus round-trips through
// the text format and primes a fresh campaign.
func TestCorpusExportImport(t *testing.T) {
	p1 := NewPool(Config{
		Modules:  []string{"watchqueue"},
		Seed:     21,
		UseSeeds: true,
	}, 1)
	p1.Run(30)
	if p1.CorpusLen() == 0 {
		t.Fatal("campaign built no corpus")
	}
	var exported strings.Builder
	if err := p1.WriteCorpus(&exported); err != nil {
		t.Fatal(err)
	}

	p2 := NewPool(Config{Modules: []string{"watchqueue"}, Seed: 22}, 1)
	n, err := p2.ReadCorpus(strings.NewReader(exported.String()))
	if err != nil || n != p1.CorpusLen() {
		t.Fatalf("imported %d of %d programs (err %v)", n, p1.CorpusLen(), err)
	}
	// The primed campaign replays the imported programs first.
	p2.Run(1)
	if s := p2.Stats(); s.STIs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestImportCorpusSkipsGarbage: unparseable blocks are ignored.
func TestImportCorpusSkipsGarbage(t *testing.T) {
	p := NewPool(Config{Modules: []string{"watchqueue"}, Seed: 1}, 1)
	n, _ := p.ReadCorpus(strings.NewReader("not a program\n\nr0 = wq_create()\nwq_pipe_read(r0)\n\n???"))
	if n != 1 {
		t.Fatalf("imported %d, want 1", n)
	}
}

// TestVacuousHintCounted: a breakpoint on an unreached branch counts as a
// vacuous MTI (the fuzzer's waste metric).
func TestVacuousHintCounted(t *testing.T) {
	env := NewEnv([]string{"watchqueue"}, nil)
	target := modules.Target("watchqueue")
	p, err := target.Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	res := env.RunMTI(MTIOpts{Prog: p, I: 1, J: 2, Hint: &hints.Hint{
		Reorderer: 0,
		Test:      hints.StoreBarrierTest,
		Sched:     0xdead, // never executed
		SchedOcc:  1,
		Reorder:   []trace.InstrID{0xbeef},
	}})
	if res.Fired {
		t.Fatal("breakpoint on unreachable site fired")
	}
	if res.Crash != nil {
		t.Fatalf("vacuous run crashed: %v", res.Crash)
	}
}
