package ozz

// Engine conformance suite: a fixed (seed, program, bug-set) matrix run
// through every execution strategy — OZZ's hypothetical-barrier OOO
// executor, the sequential syzkaller baseline, the interleaving-only
// baseline, and the KCSAN watchpoint detector — asserting that crash
// titles, coverage signatures, report-dedup counts, and per-run outcomes
// are byte-identical to the golden outputs captured before the execution
// paths were unified behind internal/engine. Any behavioral drift in the
// engine layer (kernel lifecycle, task spawning, crash recovery, stage
// structure, RNG streams) shows up here as a golden mismatch.
//
// Regenerate goldens with:
//
//	OZZ_UPDATE_GOLDEN=1 go test -run TestEngineConformance .

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ozz/internal/baseline/inorder"
	"ozz/internal/baseline/kcsan"
	"ozz/internal/core"
	"ozz/internal/engine"
	"ozz/internal/hints"
	"ozz/internal/modules"
	"ozz/internal/trace"
)

const goldenPath = "testdata/engine_golden.json"

// mtiOutcome is the signature of one hypothetical-barrier MTI run.
type mtiOutcome struct {
	Title     string `json:"title"` // crash title, "" if none
	Fired     bool   `json:"fired"`
	Reordered int    `json:"reordered"`
	CovEdges  int    `json:"cov_edges"`
	// Migrations counts the run's cross-CPU moves. Zero — and therefore
	// omitted, keeping the pre-existing fixtures byte-identical — for
	// hints without per-CPU migration sites.
	Migrations int `json:"migrations,omitempty"`
}

// oooFixture captures the OOO strategy over one (bug, program) pair: the
// STI profile signature plus every Algorithm-1 hint's MTI outcome.
type oooFixture struct {
	STICovEdges int          `json:"sti_cov_edges"`
	STIEvents   []int        `json:"sti_events"` // per-call profiled event counts
	STIReturns  []uint64     `json:"sti_returns"`
	Hints       int          `json:"hints"`
	MTIs        []mtiOutcome `json:"mtis"`
}

// campaignFixture captures a whole fuzzing campaign: deduplicated findings
// and the deterministic work counters.
type campaignFixture struct {
	Titles    []string `json:"titles"` // sorted unique crash titles
	OOOCount  int      `json:"ooo_count"`
	Reports   int      `json:"reports"` // dedup count
	CovEdges  int      `json:"cov_edges"`
	Steps     uint64   `json:"steps"`
	STIs      uint64   `json:"stis"`
	MTIs      uint64   `json:"mtis"`
	Hints     uint64   `json:"hints"`
	Vacuous   uint64   `json:"vacuous"`
	NewCov    uint64   `json:"new_cov"`
	CorpusLen int      `json:"corpus_len"`
}

type golden struct {
	// OOO strategy: store-barrier and load-barrier hypothetical tests.
	OOOStore oooFixture `json:"ooo_store"`
	OOOLoad  oooFixture `json:"ooo_load"`
	// Sequential strategy: the syzkaller baseline over the full OOO corpus
	// finds nothing.
	SeqExecs  uint64   `json:"seq_execs"`
	SeqTitles []string `json:"seq_titles"`
	// Interleave strategy: blind to OOO bugs, finds the plain UAF race.
	InterleaveOOOTitles []string `json:"interleave_ooo_titles"`
	InterleaveUAFTitles []string `json:"interleave_uaf_titles"`
	InterleaveExecs     uint64   `json:"interleave_execs"`
	// KCSAN strategy: the three §7 scenarios.
	KCSANPlainTitles     []string `json:"kcsan_plain_titles"`
	KCSANAnnotatedTitles []string `json:"kcsan_annotated_titles"`
	KCSANBitlockTitles   []string `json:"kcsan_bitlock_titles"`
	// Full campaign through the pool executor.
	Pool campaignFixture `json:"pool"`
	// OOO strategy on Table 4 #6: reproduced organically via a real
	// cross-CPU move at the scheduling point (no migration assist).
	MigrationSbitmap oooFixture `json:"migration_sbitmap"`
}

func captureOOO(t *testing.T, bugSwitch, progSrc string, pairI, pairJ int) oooFixture {
	t.Helper()
	mods := []string{modsOf(t, bugSwitch)}
	env := core.NewEnv(mods, modules.Bugs(bugSwitch))
	target := modules.Target(mods...)
	p, err := target.Parse(progSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fx := oooFixture{}
	sti := env.RunSTI(p)
	if sti.Crash != nil {
		t.Fatalf("sequential crash: %v", sti.Crash)
	}
	fx.STICovEdges = len(sti.Cov)
	for _, evs := range sti.CallEvents {
		fx.STIEvents = append(fx.STIEvents, len(evs))
	}
	fx.STIReturns = append(fx.STIReturns, sti.Returns...)
	hs := hints.Calculate(sti.CallEvents[pairI], sti.CallEvents[pairJ])
	fx.Hints = len(hs)
	for _, h := range hs {
		res := env.RunMTI(core.MTIOpts{Prog: p, I: pairI, J: pairJ, Hint: h})
		o := mtiOutcome{
			Fired: res.Fired, Reordered: res.Reordered, CovEdges: len(res.Cov),
			Migrations: res.Migrations,
		}
		if res.Crash != nil {
			o.Title = res.Crash.Title
		}
		fx.MTIs = append(fx.MTIs, o)
	}
	return fx
}

func modsOf(t *testing.T, bugSwitch string) string {
	t.Helper()
	b, ok := modules.FindBug(bugSwitch)
	if !ok {
		t.Fatalf("unknown bug switch %q", bugSwitch)
	}
	return b.Module
}

// conformanceModules pins the campaign fixtures' module universe to the
// corpus as of the golden capture, in registry (sorted) order. Modules
// added later join the fuzzing corpus without invalidating the
// pre-refactor goldens; their bug switches in the campaign's Bugs set are
// inert when the module is not built.
var conformanceModules = []string{
	"bpf", "btrfs", "fdtable", "filemap", "gsm", "irdma", "nbd",
	"rcudev", "rds", "rustsync", "sbitmap", "seqtime", "smc", "tls",
	"unixsock", "vfs", "vlan", "vmci", "watchqueue", "xsk",
}

func allOOOSwitches() []string {
	var switches []string
	for _, b := range modules.AllBugs() {
		switches = append(switches, b.Switch)
	}
	return switches
}

func campaignConfig() core.Config {
	return core.Config{
		Modules:  conformanceModules,
		Bugs:     modules.Bugs(allOOOSwitches()...),
		Seed:     1,
		UseSeeds: true,
	}
}

func captureCampaignStats(s core.Stats, titles []string, ooo, reports, cov int) campaignFixture {
	sort.Strings(titles)
	return campaignFixture{
		Titles: titles, OOOCount: ooo, Reports: reports, CovEdges: cov,
		Steps: s.Steps, STIs: s.STIs, MTIs: s.MTIs, Hints: s.Hints,
		Vacuous: s.Vacuous, NewCov: s.NewCov, CorpusLen: s.CorpusLen,
	}
}

func capture(t *testing.T) golden {
	t.Helper()
	var g golden

	// --- OOO: Fig. 1 store-barrier and load-barrier tests.
	const wqProg = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"
	g.OOOStore = captureOOO(t, "watchqueue:pipe_wmb", wqProg, 1, 2)
	g.OOOLoad = captureOOO(t, "watchqueue:pipe_rmb", wqProg, 1, 2)

	// --- Sequential: syzkaller over the whole buggy corpus.
	sz := inorder.NewSyzkallerObs(nil, modules.Bugs(allOOOSwitches()...), 1, nil)
	for i := 0; i < 120; i++ {
		sz.Step()
	}
	g.SeqExecs = sz.Execs
	g.SeqTitles = append([]string{}, sz.Reports.Titles()...)

	// --- Interleave: blind to the Fig. 1 OOO bug, finds the plain UAF.
	ivOOO := inorder.NewInterleaver([]string{"watchqueue"},
		modules.Bugs("watchqueue:pipe_wmb", "watchqueue:pipe_rmb"), 1)
	wqTarget := modules.Target("watchqueue")
	wp, err := wqTarget.Parse(wqProg)
	if err != nil {
		t.Fatal(err)
	}
	g.InterleaveOOOTitles = append([]string{}, ivOOO.Hunt(wp, 60)...)

	ivUAF := inorder.NewInterleaver([]string{"vmci"}, modules.Bugs("vmci:uaf_race"), 2)
	vmciTarget := modules.Target("vmci")
	vp, err := vmciTarget.Parse("r0 = vmci_create()\nvmci_qp_alloc(r0, 0x10)\nvmci_qp_wait(r0)\nvmci_qp_destroy(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	g.InterleaveUAFTitles = append([]string{}, ivUAF.Hunt(vp, 60)...)
	g.InterleaveExecs = ivUAF.Execs

	// --- KCSAN: the §7 scenarios (plain race / annotated race / bit lock).
	kcsanTitles := func(mod, sw, src string, seed int64) []string {
		d := kcsan.NewObs([]string{mod}, modules.Bugs(sw), seed, nil)
		target := modules.Target(mod)
		p, err := target.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return append([]string{}, d.Hunt(p, 80)...)
	}
	g.KCSANPlainTitles = kcsanTitles("gsm", "gsm:dlci_config_rmb",
		"r0 = gsm_open()\ngsm_activate(r0, 0x0)\ngsm_dlci_config(r0, 0x0, 0x200)\n", 1)
	g.KCSANAnnotatedTitles = kcsanTitles("tls", "tls:sk_prot_wmb",
		"r0 = tls_socket()\ntls_init(r0)\nsock_setsockopt(r0, 0x1)\n", 2)
	g.KCSANBitlockTitles = kcsanTitles("rds", "rds:clear_bit_unlock",
		"r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\n", 3)

	// --- Full campaign, parallel pool (4 workers; deterministic in seed).
	pl := core.NewPool(campaignConfig(), 4)
	pl.Run(64)
	ps := pl.Stats()
	pooo := 0
	poolTitles := []string{}
	for _, r := range pl.Reports.All() {
		if r.OOO {
			pooo++
		}
		poolTitles = append(poolTitles, r.Title)
	}
	g.Pool = captureCampaignStats(ps, poolTitles, pooo, pl.Reports.Len(), pl.CoverageEdges())

	// --- Migration: Table 4 #6 via a real cross-CPU move (no assist).
	const sbProg = "r0 = sb_init()\nsb_get(r0)\nsb_get(r0)\nsb_get(r0)\nsb_resize(r0, 0x3)\nsb_get(r0)\n"
	g.MigrationSbitmap = captureOOO(t, "sbitmap:freed_order", sbProg, 4, 5)

	return g
}

// TestEngineConformance runs the strategy matrix and compares against the
// pre-refactor golden outputs.
func TestEngineConformance(t *testing.T) {
	got := capture(t)

	if os.Getenv("OZZ_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with OZZ_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("golden decode: %v", err)
	}

	check := func(name string, gotV, wantV any) {
		if !reflect.DeepEqual(gotV, wantV) {
			t.Errorf("%s drifted from pre-refactor golden:\n got: %+v\nwant: %+v", name, gotV, wantV)
		}
	}
	check("ooo_store", got.OOOStore, want.OOOStore)
	check("ooo_load", got.OOOLoad, want.OOOLoad)
	check("seq_execs", got.SeqExecs, want.SeqExecs)
	check("seq_titles", got.SeqTitles, want.SeqTitles)
	check("interleave_ooo_titles", got.InterleaveOOOTitles, want.InterleaveOOOTitles)
	check("interleave_uaf_titles", got.InterleaveUAFTitles, want.InterleaveUAFTitles)
	check("interleave_execs", got.InterleaveExecs, want.InterleaveExecs)
	check("kcsan_plain_titles", got.KCSANPlainTitles, want.KCSANPlainTitles)
	check("kcsan_annotated_titles", got.KCSANAnnotatedTitles, want.KCSANAnnotatedTitles)
	check("kcsan_bitlock_titles", got.KCSANBitlockTitles, want.KCSANBitlockTitles)
	check("pool_campaign", got.Pool, want.Pool)
	check("migration_sbitmap", got.MigrationSbitmap, want.MigrationSbitmap)
}

// TestCrossStrategyProperties pins the relationships BETWEEN strategies
// that the golden matrix above cannot express — the properties the
// paper's architecture rests on, checked over every module's seed
// corpus rather than a fixed fixture.
func TestCrossStrategyProperties(t *testing.T) {
	// Property 1: the OOO strategy without a hint IS the sequential
	// baseline. Both Pair plans collapse to nil, so crash, returns, and
	// coverage must be identical program by program.
	t.Run("ooo-without-hint-is-sequential", func(t *testing.T) {
		eng := engine.NewObs(nil)
		cfg := engine.Config{Bugs: modules.Bugs(allOOOSwitches()...), Instrumented: true}
		target := modules.Target()
		for i, src := range modules.Seeds() {
			p, err := target.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			ooo := eng.Run(cfg, engine.OOO{}, engine.Request{Prog: p})
			seq := eng.Run(cfg, engine.Sequential{}, engine.Request{Prog: p})
			if (ooo.Crash == nil) != (seq.Crash == nil) ||
				(ooo.Crash != nil && ooo.Crash.Title != seq.Crash.Title) {
				t.Fatalf("seed %d: crash differs: ooo=%v seq=%v", i, ooo.Crash, seq.Crash)
			}
			if !reflect.DeepEqual(ooo.Returns, seq.Returns) {
				t.Fatalf("seed %d: returns differ: %v vs %v", i, ooo.Returns, seq.Returns)
			}
			if len(ooo.Cov) != len(seq.Cov) {
				t.Fatalf("seed %d: coverage differs: %d vs %d edges", i, len(ooo.Cov), len(seq.Cov))
			}
		}
	})

	// Property 2: suppressing the OEMU directives (NoReorder — the triage
	// re-run) makes every hint execution behave in-order: no reordering
	// occurs and no OOO crash fires, even though the interleaving
	// schedule is identical. This is §2.3's claim that interleaving
	// control alone cannot expose missing-barrier bugs, as a property
	// over ALL hints of the Fig. 1 program.
	t.Run("no-reorder-hints-match-sequential", func(t *testing.T) {
		const wqProg = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"
		for _, sw := range []string{"watchqueue:pipe_wmb", "watchqueue:pipe_rmb"} {
			env := core.NewEnv([]string{"watchqueue"}, modules.Bugs(sw))
			p, err := modules.Target("watchqueue").Parse(wqProg)
			if err != nil {
				t.Fatal(err)
			}
			sti := env.RunSTI(p)
			if sti.Crash != nil {
				t.Fatalf("%s: sequential run crashed: %v", sw, sti.Crash)
			}
			hs := hints.Calculate(sti.CallEvents[1], sti.CallEvents[2])
			if len(hs) == 0 {
				t.Fatalf("%s: no hints calculated", sw)
			}
			fired := false
			for _, h := range hs {
				res := env.RunMTI(core.MTIOpts{Prog: p, I: 1, J: 2, Hint: h, NoReorder: true})
				if res.Reordered != 0 {
					t.Fatalf("%s: hint %s reordered %d accesses with directives suppressed",
						sw, h, res.Reordered)
				}
				if res.Crash != nil {
					t.Fatalf("%s: hint %s crashed without reordering: %v", sw, h, res.Crash)
				}
				fired = fired || res.Fired
			}
			if !fired {
				t.Fatalf("%s: no hint's scheduling point was ever reached", sw)
			}
			// The same hints WITH directives must actually reorder on at
			// least one run (individual hints may be vacuous — an empty
			// versioning window at the scheduling point reorders nothing):
			// sequential behaviours are a strict subset of OOO behaviours.
			reordered := false
			for _, h := range hs {
				live := env.RunMTI(core.MTIOpts{Prog: p, I: 1, J: 2, Hint: h})
				reordered = reordered || live.Reordered > 0
			}
			if !reordered {
				t.Fatalf("%s: no hint reordered anything with directives live", sw)
			}
		}
	})

	// Property 3: a hint with no per-CPU migration sites never migrates —
	// the MigrateAt wrapper is only installed for migration-annotated
	// hints, so every other hint runs the paper's pinned-thread test with
	// zero cross-CPU moves. Checked over every hint of every module's seed
	// corpus; the annotated hints must migrate at least once, so the
	// property is not vacuous.
	t.Run("migration-without-sites-is-ooo", func(t *testing.T) {
		env := core.NewEnv(nil, modules.Bugs(allOOOSwitches()...))
		target := modules.Target()
		checked, migrated := 0, 0
		for i, src := range modules.Seeds() {
			p, err := target.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			sti := env.RunSTI(p)
			if sti.Crash != nil || len(sti.CallEvents) < 2 {
				continue
			}
			for a := 0; a < len(sti.CallEvents)-1; a++ {
				for b := a + 1; b < len(sti.CallEvents); b++ {
					for _, h := range hints.Calculate(sti.CallEvents[a], sti.CallEvents[b]) {
						res := env.RunMTI(core.MTIOpts{Prog: p, I: a, J: b, Hint: h})
						if len(h.Migrate) != 0 {
							migrated += res.Migrations
							continue
						}
						if res.Migrations != 0 {
							t.Fatalf("seed %d pair (%d,%d) hint %s: %d migrations without migration sites",
								i, a, b, h, res.Migrations)
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatal("no migration-free hints in the whole seed corpus")
		}
		if migrated == 0 {
			t.Fatal("no migration-annotated hint ever migrated")
		}
	})

	// Property 4: Algorithm 2 (filter_out) drops only accesses that can
	// never contribute to a hint — running Algorithm 1 on pre-filtered
	// sequences yields the exact same hint set (FilterOut is idempotent
	// inside Calculate).
	t.Run("filter-out-preserves-hints", func(t *testing.T) {
		env := core.NewEnv(nil, modules.Bugs(allOOOSwitches()...))
		target := modules.Target()
		for i, src := range modules.Seeds() {
			p, err := target.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
			sti := env.RunSTI(p)
			if sti.Crash != nil || len(sti.CallEvents) < 2 {
				continue
			}
			for a := 0; a < len(sti.CallEvents)-1; a++ {
				for b := a + 1; b < len(sti.CallEvents); b++ {
					si, sj := sti.CallEvents[a], sti.CallEvents[b]
					direct := hints.Calculate(si, sj)
					fi, fj := hints.FilterOut(si, sj)
					filtered := hints.Calculate(fi, fj)
					if !reflect.DeepEqual(direct, filtered) {
						t.Fatalf("seed %d pair (%d,%d): filtering changed the hint set:\n%v\nvs\n%v",
							i, a, b, direct, filtered)
					}
					// Every reorder site must touch a location shared by
					// the pair — filtered events retain exactly those.
					sites := make(map[trace.InstrID]bool)
					for _, evs := range [][]trace.Event{fi, fj} {
						for _, e := range evs {
							if !e.Barrier {
								sites[e.Acc.Instr] = true
							}
						}
					}
					for _, h := range direct {
						for _, s := range h.Reorder {
							if !sites[s] {
								t.Fatalf("seed %d pair (%d,%d): hint %s reorders site %d outside the shared set",
									i, a, b, h, s)
							}
						}
					}
				}
			}
		}
	})
}
