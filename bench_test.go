package ozz

// This file is the benchmark harness index: one testing.B benchmark per
// evaluation table/figure of the paper (run with `go test -bench=. -benchmem`).
// Each benchmark both exercises the corresponding machinery per iteration
// and reports the headline quantity of its table as a custom metric, so the
// -bench output IS the reproduction record (see EXPERIMENTS.md).

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ozz/internal/baseline/inorder"
	"ozz/internal/bench"
	"ozz/internal/core"
	"ozz/internal/hints"
	"ozz/internal/lkmm"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// --- Table 3: finding the 11 new bugs --------------------------------------

// BenchmarkTable3FindNewBugs runs one full seeded campaign per Table 3 bug
// per iteration and reports how many of the 11 were found (paper: 11).
func BenchmarkTable3FindNewBugs(b *testing.B) {
	found := 0
	for i := 0; i < b.N; i++ {
		found = 0
		for _, r := range bench.RunTable3(60) {
			if r.Found {
				found++
			}
		}
	}
	b.ReportMetric(float64(found), "bugs-found/11")
}

// --- Table 4: reproducing known bugs ----------------------------------------

// BenchmarkTable4ReproduceKnown reproduces the 9 previously-reported bugs
// and reports the reproduction count (paper: 8 of 9 with pinned threads,
// +1 with a manual migration assist; here OOO's cross-CPU move at
// migration-sensitive scheduling points makes it 9/9 organically) and the
// mean number of hypothetical-barrier tests to trigger (paper: tens of
// tests). The pinned-thread control re-checks that
// sbitmap does NOT fire without cross-CPU moves.
func BenchmarkTable4ReproduceKnown(b *testing.B) {
	repro, totalTests, viaMigration, pinnedControl := 0, 0, 0, 0
	for i := 0; i < b.N; i++ {
		repro, totalTests, viaMigration = 0, 0, 0
		for _, r := range bench.RunTable4(60) {
			if r.Found {
				repro++
				totalTests += r.Tests
				if r.Bug.Switch == "sbitmap:freed_order" {
					viaMigration = 1
				}
			}
		}
		pinnedControl = 0
		if bench.RunSbitmapPinned(60).Found {
			pinnedControl = 1
		}
	}
	b.ReportMetric(float64(repro), "reproduced/9")
	b.ReportMetric(float64(viaMigration), "sbitmap-via-migration")
	b.ReportMetric(float64(pinnedControl), "sbitmap-pinned-control")
	if repro > 0 {
		b.ReportMetric(float64(totalTests)/float64(repro), "mean-tests-to-trigger")
	}
}

// --- Table 5: LMBench instrumentation overhead ------------------------------

// benchLM runs one Table 5 workload pair and reports the overhead ratio.
func benchLM(b *testing.B, name string) {
	var row bench.LMBenchRow
	for i := 0; i < b.N; i++ {
		for _, r := range bench.RunLMBench(2000) {
			if r.Name == name {
				row = r
			}
		}
	}
	b.ReportMetric(row.Overhead, "overhead-x")
	b.ReportMetric(row.InstrNs, "instr-ns/op")
	b.ReportMetric(row.BaseNs, "plain-ns/op")
}

func BenchmarkTable5LMBenchNull(b *testing.B)      { benchLM(b, "null") }
func BenchmarkTable5LMBenchStat(b *testing.B)      { benchLM(b, "stat") }
func BenchmarkTable5LMBenchOpenClose(b *testing.B) { benchLM(b, "open/close") }
func BenchmarkTable5LMBenchCreate(b *testing.B)    { benchLM(b, "File create") }
func BenchmarkTable5LMBenchDelete(b *testing.B)    { benchLM(b, "File delete") }
func BenchmarkTable5LMBenchCtxsw(b *testing.B)     { benchLM(b, "ctxsw 2p/0k") }
func BenchmarkTable5LMBenchPipe(b *testing.B)      { benchLM(b, "pipe") }
func BenchmarkTable5LMBenchUnix(b *testing.B)      { benchLM(b, "unix") }
func BenchmarkTable5LMBenchFork(b *testing.B)      { benchLM(b, "fork") }
func BenchmarkTable5LMBenchMmap(b *testing.B)      { benchLM(b, "mmap") }

// --- §6.3.2: fuzzing throughput ---------------------------------------------

// BenchmarkThroughputSyzkaller measures the syzkaller-style baseline: one
// sequential program execution on the plain kernel per iteration.
func BenchmarkThroughputSyzkaller(b *testing.B) {
	s := inorder.NewSyzkaller(nil, nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tests/s")
}

// BenchmarkThroughputOzz measures OZZ: one full pipeline step (STI +
// profiling + hints + all MTI runs) per iteration. The paper reports a 7.9x
// throughput drop versus the baseline.
func BenchmarkThroughputOzz(b *testing.B) {
	p := core.NewPool(core.Config{Seed: 1, UseSeeds: true}, 1)
	b.ResetTimer()
	p.Run(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tests/s")
	if s := p.Stats(); s.Steps > 0 {
		b.ReportMetric(float64(s.MTIs)/float64(s.Steps), "MTIs/program")
	}
}

// BenchmarkThroughputComparison reports the slowdown factor directly
// (paper: 7.9x).
func BenchmarkThroughputComparison(b *testing.B) {
	var res bench.ThroughputResult
	for i := 0; i < b.N; i++ {
		res = bench.MeasureThroughput(300*time.Millisecond, nil, nil)
	}
	b.ReportMetric(res.Slowdown, "slowdown-x")
	b.ReportMetric(res.OzzTestsPerSec, "ozz-tests/s")
	b.ReportMetric(res.SyzkallerTestsPerSec, "syzkaller-tests/s")
}

// BenchmarkParallelThroughput measures the Pool executor at 1, 2, 4, and
// GOMAXPROCS workers — the tests/s scaling column of the §6.3.2 table. Each
// sub-benchmark runs one full pipeline step per iteration; the campaign
// itself is deterministic in the seed, so every width does identical work.
func BenchmarkParallelThroughput(b *testing.B) {
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := core.NewPool(core.Config{Seed: 1, UseSeeds: true}, w)
			b.ResetTimer()
			p.Run(b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tests/s")
			s := p.Stats()
			b.ReportMetric(100*s.Perf.STICacheHitRate(), "sti-cache-hit-%")
			b.ReportMetric(100*s.Perf.RecycleRate(), "kernel-recycle-%")
		})
	}
}

// --- §4.3: search-heuristic validation --------------------------------------

// BenchmarkHeuristicHintRank reports how many corpus bugs trigger with the
// top-ranked (maximum-reordering) hint and the second rank (paper: 11 and 6
// of 19).
func BenchmarkHeuristicHintRank(b *testing.B) {
	var dist map[int]int
	var n int
	for i := 0; i < b.N; i++ {
		rows, d := bench.RunHeuristic(60)
		dist, n = d, len(rows)
	}
	b.ReportMetric(float64(dist[1]), "rank1-bugs")
	b.ReportMetric(float64(dist[2]), "rank2-bugs")
	b.ReportMetric(float64(n), "bugs-total")
}

// --- §6.4: OFence comparison -------------------------------------------------

// BenchmarkOFenceComparison reports how many of the 11 new bugs fall
// outside the static paired-barrier patterns (paper: 8).
func BenchmarkOFenceComparison(b *testing.B) {
	misses := 0
	for i := 0; i < b.N; i++ {
		_, misses = bench.RunOFence()
	}
	b.ReportMetric(float64(misses), "missed-by-ofence/11")
}

// --- Fig. 5: the hypothetical barrier tests (mechanism microbenchmarks) -----

func fig5Setup(b *testing.B, bugSwitch string) (*core.Env, *syzlang.Program, []*hints.Hint) {
	b.Helper()
	env := core.NewEnv([]string{"watchqueue"}, modules.Bugs(bugSwitch))
	target := modules.Target("watchqueue")
	p, err := target.Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n")
	if err != nil {
		b.Fatal(err)
	}
	sti := env.RunSTI(p)
	hs := hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
	if len(hs) == 0 {
		b.Fatal("no hints")
	}
	return env, p, hs
}

// BenchmarkFig5aStoreBarrierTest times one hypothetical-store-barrier MTI
// execution (delayed stores + breakpoint interleaving, Fig. 5a).
func BenchmarkFig5aStoreBarrierTest(b *testing.B) {
	env, p, hs := fig5Setup(b, "watchqueue:pipe_wmb")
	var h *hints.Hint
	for _, c := range hs {
		if c.Test == hints.StoreBarrierTest {
			h = c
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunMTI(core.MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
	}
}

// BenchmarkFig5bLoadBarrierTest times one hypothetical-load-barrier MTI
// execution (versioned loads + breakpoint interleaving, Fig. 5b).
func BenchmarkFig5bLoadBarrierTest(b *testing.B) {
	env, p, hs := fig5Setup(b, "watchqueue:pipe_rmb")
	var h *hints.Hint
	for _, c := range hs {
		if c.Test == hints.LoadBarrierTest {
			h = c
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.RunMTI(core.MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
	}
}

// --- Algorithm 1: scheduling-hint calculation -------------------------------

// BenchmarkAlgorithm1HintCalculation times hint computation for a profiled
// pair (the per-pair cost of §4.3).
func BenchmarkAlgorithm1HintCalculation(b *testing.B) {
	env := core.NewEnv([]string{"watchqueue"}, nil)
	target := modules.Target("watchqueue")
	p, err := target.Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n")
	if err != nil {
		b.Fatal(err)
	}
	sti := env.RunSTI(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
	}
}

// --- §10.1 / §3.3: LKMM litmus engine ---------------------------------------

// BenchmarkLitmusMP times the exhaustive litmus exploration of the
// message-passing shape (all interleavings x all directive assignments).
func BenchmarkLitmusMP(b *testing.B) {
	test := &lkmm.Test{
		Name: "MP",
		Threads: [][]lkmm.Op{
			{lkmm.W(0, 1), lkmm.Wmb(), lkmm.W(1, 1)},
			{lkmm.R(1, 0), lkmm.Rmb(), lkmm.R(0, 1)},
		},
		NumLocs: 2, NumRegs: 2,
	}
	for i := 0; i < b.N; i++ {
		lkmm.Run(test)
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---------------------------

// BenchmarkAblationInterrupts shows why the custom scheduler must suspend
// vCPUs without delivering interrupts (§3.1): with an interrupt injected at
// every scheduling point, store-barrier tests stop finding S-S bugs.
func BenchmarkAblationInterrupts(b *testing.B) {
	count := func(interrupts bool) float64 {
		found := 0
		for _, bug := range modules.AllBugs() {
			if bug.Type != "S-S" || bug.Switch == "sbitmap:freed_order" {
				continue
			}
			p := core.NewPool(core.Config{
				Modules:           []string{bug.Module},
				Bugs:              modules.Bugs(bug.Switch),
				Seed:              42,
				UseSeeds:          true,
				InterruptOnSwitch: interrupts,
			}, 1)
			want := bug.Title
			if want == "" {
				want = bug.SoftTitle
			}
			if p.RunUntil(want, 60) != nil {
				found++
			}
		}
		return float64(found)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		without, with = count(false), count(true)
	}
	b.ReportMetric(without, "SS-bugs-no-interrupts")
	b.ReportMetric(with, "SS-bugs-with-interrupts")
}

// BenchmarkMinimize times reproducer minimization on the rds crash.
func BenchmarkMinimize(b *testing.B) {
	const title = "KASAN: slab-out-of-bounds Read in rds_loop_xmit"
	env := core.NewEnv([]string{"rds"}, modules.Bugs("rds:clear_bit_unlock"))
	target := modules.Target("rds")
	p, err := target.Parse("r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\nrds_loop_xmit(r0)\n")
	if err != nil {
		b.Fatal(err)
	}
	sti := env.RunSTI(p)
	var hit *hints.Hint
	for _, h := range hints.Calculate(sti.CallEvents[2], sti.CallEvents[3]) {
		if res := env.RunMTI(core.MTIOpts{Prog: p, I: 2, J: 3, Hint: h}); res.Crash != nil {
			hit = h
			break
		}
	}
	if hit == nil {
		b.Fatal("no reproducing hint")
	}
	b.ResetTimer()
	var calls int
	for i := 0; i < b.N; i++ {
		m, _, _ := env.Minimize(p, 2, 3, hit, title)
		calls = len(m.Calls)
	}
	b.ReportMetric(float64(len(p.Calls)), "calls-before")
	b.ReportMetric(float64(calls), "calls-after")
}
