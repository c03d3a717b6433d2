package core

import (
	"strings"
	"testing"

	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/kernel"
	"ozz/internal/modules"
	"ozz/internal/oemu"
	"ozz/internal/sched"
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

// interruptOOO is the interrupt-injection ablation (§3.1): the OOO
// strategy with an interrupt delivered on the reorderer's CPU when the
// breakpoint fires. Interrupts drain the virtual store buffer, so
// store-barrier tests become vacuous — the reason OZZ's scheduler
// suspends vCPUs without delivering interrupts.
type interruptOOO struct{ engine.OOO }

// Pair implements engine.Strategy.
func (interruptOOO) Pair(req *engine.Request, plan *engine.PairPlan) bool {
	if !(engine.OOO{}).Pair(req, plan) {
		return false
	}
	p := &interruptAtFire{Policy: plan.Policy, bp: &plan.Breakpoint}
	plan.Policy = p
	arm := plan.Arm
	plan.Arm = func(req *engine.Request, ta, tb *kernel.Task) {
		arm(req, ta, tb)
		p.reorderer = ta.OEMU()
	}
	return true
}

// interruptAtFire wraps OOO's policy and interrupts the reorderer's CPU
// once, when the breakpoint fires, before the switch takes effect.
type interruptAtFire struct {
	sched.Policy
	bp        *sched.Breakpoint
	reorderer *oemu.Thread
}

func (p *interruptAtFire) OnYield(cur *sched.Task, instr trace.InstrID) (int, bool) {
	fired := p.bp.Fired
	to, sw := p.Policy.OnYield(cur, instr)
	if !fired && p.bp.Fired {
		p.reorderer.Interrupt()
	}
	return to, sw
}

// TestAblationInterrupts is the campaign-level ablation of DESIGN.md row
// 18: with an interrupt injected at every scheduling point, store-barrier
// tests stop finding S-S bugs. Every S-S bug except sbitmap's runs a
// 60-step seeded campaign under OOO and under interruptOOO.
func TestAblationInterrupts(t *testing.T) {
	var bugs, plain, interrupted int
	for _, bug := range modules.AllBugs() {
		if bug.Type != "S-S" || bug.Switch == "sbitmap:freed_order" {
			continue
		}
		bugs++
		want := bug.Title
		if want == "" {
			want = bug.SoftTitle
		}
		for _, strat := range []engine.Strategy{nil, interruptOOO{}} {
			p := NewPool(Config{
				Modules:  []string{bug.Module},
				Bugs:     modules.Bugs(bug.Switch),
				Seed:     42,
				UseSeeds: true,
			}, 1)
			if strat != nil {
				p.Env().Strategy = strat
			}
			if p.RunUntil(want, 60) == nil {
				continue
			}
			if strat == nil {
				plain++
			} else {
				interrupted++
				t.Errorf("%s found despite interrupt injection", bug.Switch)
			}
		}
	}
	if bugs != 18 || plain != 18 || interrupted != 0 {
		t.Fatalf("S-S bugs found: %d of %d under OOO, %d with interrupts; want 18 of 18 and 0",
			plain, bugs, interrupted)
	}
}

// TestInterruptInjectionDefeatsStoreTest is the interrupt ablation on one
// MTI: an interrupt at the scheduling point drains the virtual store
// buffer, so the delayed-store reordering never becomes visible.
func TestInterruptInjectionDefeatsStoreTest(t *testing.T) {
	const title = "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	const prog = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"

	env := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb"))
	p, h := crashingHint(t, env, prog, title, 1, 2)

	envInt := NewEnv([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb"))
	envInt.Strategy = interruptOOO{}
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
	envInt.Strategy = interruptOOO{}
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
	m := env.Minimize(Finding{Prog: p, I: hi, J: hj, Hint: hit, Title: title})
	minned, mi, mj := m.Prog, m.I, m.J
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
		return p.Stats(), p.Reports.set.Titles()
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
	if p1.Stats().CorpusLen == 0 {
		t.Fatal("campaign built no corpus")
	}
	var exported strings.Builder
	if err := p1.WriteCorpus(&exported); err != nil {
		t.Fatal(err)
	}

	p2 := NewPool(Config{Modules: []string{"watchqueue"}, Seed: 22}, 1)
	n, err := p2.ReadCorpus(strings.NewReader(exported.String()))
	if err != nil || n != p1.Stats().CorpusLen {
		t.Fatalf("imported %d of %d programs (err %v)", n, p1.Stats().CorpusLen, err)
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
