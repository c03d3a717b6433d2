// Command ozz runs an OZZ fuzzing campaign against the simulated kernel's
// bug corpus and prints every finding as a syzkaller-style report with the
// hypothetical-barrier location (§4.4).
//
// Usage:
//
//	ozz [-modules tls,xsk] [-bugs all|sw1,sw2] [-steps 500] [-seed 1] [-workers 4] [-v]
//	ozz -duration 30s -metrics-addr 127.0.0.1:9911 -events events.jsonl
//	ozz -mode manager -listen 127.0.0.1:9900 -steps 600 -shard-steps 20 [-state-dir DIR] [-token T]
//	ozz -mode worker -manager http://127.0.0.1:9900 [-token T]
//
// With -bugs all (the default), every Table 3/Table 4 bug switch is active —
// the fuzzer hunts the whole corpus. With -bugs "" the kernel is fully
// fixed and a clean campaign is expected to find nothing.
//
// Reordering tests run under the migration-aware OOO executor: at the
// scheduling point of a hint whose racing pair shares a per-CPU location,
// the observer task migrates to the prefix CPU — what reproduces Table 4
// #6 organically. See docs/SCHEDULING.md.
//
// The campaign runs on the parallel Pool executor at -workers width. The
// step sequence is deterministic in the campaign seed, so any worker count
// produces the same findings, coverage, and corpus — only faster.
//
// Modes (see internal/dist): the default "standalone" runs the whole
// campaign in-process exactly as before. "manager" owns one campaign —
// shard plan, global corpus, global crash dedup — and serves the fabric
// API (plus /metrics) on -listen; it runs no programs itself. With
// -state-dir it journals the campaign and resumes it after a restart;
// with -token every request must carry that token. "worker" leases one
// shard at a time from -manager, runs it locally, and ships the shard's
// corpus and findings on the poll that completes it; it keeps no corpus
// of its own, so -corpus-out applies to standalone and manager modes only.
// Shards are deterministic in the campaign seed, so a 1-manager/N-worker
// campaign finds the same deduplicated crash titles as a standalone
// campaign over the same shard plan.
//
// On SIGINT/SIGTERM every mode shuts down gracefully: standalone finishes
// its current step slice, prints the summary, and persists -corpus-out; a
// worker ships the interrupted shard's partial results on its final
// deregistering poll; the manager persists its merged global state. The
// event log is flushed and closed on every exit path.
//
// Observability (see docs/OBSERVABILITY.md): -metrics-addr serves the
// campaign's metric registry in Prometheus text format on /metrics (plus
// net/http/pprof on /debug/pprof/); -events appends one JSON object per
// campaign event to the given file; -duration switches from a fixed step
// count to a wall-clock budget.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ozz/internal/core"
	"ozz/internal/dist"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
)

func main() {
	var (
		mode      = flag.String("mode", "standalone", `campaign mode: "standalone", "manager", or "worker"`)
		mods      = flag.String("modules", "", "comma-separated modules to load (default: all)")
		bugs      = flag.String("bugs", "all", `bug switches to enable: "all", "" (none), or a comma list`)
		steps     = flag.Int("steps", 300, "fuzzer iterations (manager: total across all shards)")
		seed      = flag.Int64("seed", 1, "campaign seed")
		workers   = flag.Int("workers", 1, "parallel campaign workers (0 or negative = GOMAXPROCS)")
		v         = flag.Bool("v", false, "print per-step progress and campaign metrics")
		list      = flag.Bool("list", false, "list modules and bug switches, then exit")
		corpusIn  = flag.String("corpus-in", "", "file with a previously exported corpus to resume from")
		corpusOut = flag.String("corpus-out", "", "file to export the coverage corpus to at exit")
		model     = flag.String("model", "lkmm", "memory model OEMU emulates: "+strings.Join(memmodel.Names(), ", "))

		duration    = flag.Duration("duration", 0, "wall-clock campaign budget; when > 0 it replaces -steps")
		metricsAddr = flag.String("metrics-addr", "", `serve /metrics and /debug/pprof/ on this address (e.g. "127.0.0.1:9911"; ":0" picks a free port)`)
		eventsPath  = flag.String("events", "", "append campaign events as JSON lines to this file")

		listen     = flag.String("listen", "127.0.0.1:9900", "manager: address serving the fabric API and /metrics")
		managerURL = flag.String("manager", "http://127.0.0.1:9900", "worker: manager base URL")
		name       = flag.String("name", "", "worker: name reported to the manager (default hostname:pid)")
		shardSteps = flag.Int("shard-steps", 64, "manager: steps per work lease")
		leaseTTL   = flag.Duration("lease-ttl", 5*time.Second, "manager: lease time-to-live without renewal")
		heartbeat  = flag.Duration("heartbeat", time.Second, "manager: heartbeat cadence expected from workers")

		stateDir = flag.String("state-dir", "", "manager: directory for durable campaign state (snapshot + write-ahead log); enables crash-restart resume")
		token    = flag.String("token", "", "auth token (manager: required on every request; worker: sent with every request)")
	)
	flag.Parse()
	if *mode == "worker" && *corpusOut != "" {
		fmt.Fprintln(os.Stderr, "-corpus-out applies to standalone and manager modes")
		os.Exit(2)
	}

	if *list {
		fmt.Println("modules:")
		for _, m := range modules.All() {
			fmt.Printf("  %-12s %d syscalls, %d bugs\n", m.Name, len(m.Defs), len(m.Bugs))
		}
		fmt.Println("bug switches:")
		for _, b := range modules.AllBugs() {
			fmt.Printf("  %-28s %-6s table=%d  %s\n", b.Switch, b.Type, b.Table, b.Title+b.SoftTitle)
		}
		return
	}

	var modList []string
	if *mods != "" {
		modList = strings.Split(*mods, ",")
	}
	var bugNames []string
	switch *bugs {
	case "all":
		for _, b := range modules.AllBugs() {
			bugNames = append(bugNames, b.Switch)
		}
	case "":
	default:
		bugNames = strings.Split(*bugs, ",")
	}
	bugSet := modules.Bugs(bugNames...)

	mm, err := memmodel.ByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Observability plumbing: one registry and one event log for the whole
	// campaign, wired into the Pool via its Config. Both are purely
	// observational — enabling them never changes campaign results.
	reg := obs.NewRegistry()
	var events *obs.EventLog
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "events: %v\n", err)
			os.Exit(1)
		}
		events = obs.NewEventLog(f, obs.LevelInfo)
	}
	// Every exit path (including os.Exit-free signal shutdowns) flushes
	// the event log via this close; fatal() below closes it explicitly
	// because os.Exit skips defers.
	defer events.Close()
	if *metricsAddr != "" {
		bound, stop, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fatal(events, "metrics-addr: %v", err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", bound)
	}

	// SIGINT/SIGTERM cancel ctx; every mode treats cancellation as a
	// graceful wind-down, not an abort.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	switch *mode {
	case "standalone":
		runStandalone(ctx, standaloneConfig{
			modList: modList, bugSet: bugSet, seed: *seed, workers: *workers,
			steps: *steps, duration: *duration, verbose: *v,
			corpusIn: *corpusIn, corpusOut: *corpusOut, model: mm,
			reg: reg, events: events,
		})
	case "manager":
		runManager(ctx, dist.ManagerConfig{
			Campaign: dist.CampaignSpec{
				Modules: modList, Bugs: bugNames, UseSeeds: true,
				Model: mm.Name(),
			},
			TotalSteps: *steps, ShardSteps: *shardSteps, Seed: *seed,
			LeaseTTL: *leaseTTL, HeartbeatEvery: *heartbeat,
			Token: *token, StateDir: *stateDir,
			Obs: reg, Events: events,
		}, *listen, *corpusOut, events)
	case "worker":
		runWorker(ctx, dist.WorkerConfig{
			ManagerURL: *managerURL, Name: workerName(*name), Token: *token,
			PoolWorkers: *workers, Obs: reg, Events: events,
		}, events)
	default:
		fatal(events, "unknown -mode %q (want standalone, manager, or worker)", *mode)
	}
}

// fatal flushes the event log (os.Exit skips defers) and exits non-zero.
func fatal(events *obs.EventLog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	events.Close()
	os.Exit(1)
}

// workerName resolves the worker's advertised name.
func workerName(flagName string) string {
	if flagName != "" {
		return flagName
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// standaloneConfig bundles the flags the standalone campaign consumes.
type standaloneConfig struct {
	modList   []string
	bugSet    modules.BugSet
	seed      int64
	workers   int
	steps     int
	duration  time.Duration
	verbose   bool
	corpusIn  string
	corpusOut string
	model     *memmodel.Table
	reg       *obs.Registry
	events    *obs.EventLog
}

// runStandalone is the classic single-process campaign: the whole step
// budget on one Pool, findings printed as they appear. A shutdown signal
// ends the campaign at the next slice boundary with the summary and
// corpus export intact.
func runStandalone(ctx context.Context, cfg standaloneConfig) {
	// Every worker count runs on the Pool executor — the campaign's step
	// sequence is a function of the seed alone, so -workers only changes
	// wall-clock time, never the output.
	p := core.NewPool(core.Config{
		Modules:  cfg.modList,
		Bugs:     cfg.bugSet,
		Seed:     cfg.seed,
		UseSeeds: true,
		Model:    cfg.model,
		Obs:      cfg.reg,
		Events:   cfg.events,
	}, cfg.workers)
	if cfg.corpusIn != "" {
		in, err := os.Open(cfg.corpusIn)
		if err != nil {
			fatal(cfg.events, "corpus-in: %v", err)
		}
		n, err := p.ReadCorpus(in)
		in.Close()
		switch {
		case err != nil && n > 0:
			// Partial import (truncated or corrupted tail): keep what
			// decoded cleanly and say so, rather than discarding a mostly
			// good corpus.
			fmt.Fprintf(os.Stderr, "corpus-in: partial import, kept %d programs: %v\n", n, err)
		case err != nil:
			fatal(cfg.events, "corpus-in: %v", err)
		default:
			fmt.Fprintf(os.Stderr, "imported %d corpus programs\n", n)
		}
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "campaign: %d workers\n", p.Workers)
	}
	cfg.events.Info(0, "campaign_start", map[string]any{
		"seed": cfg.seed, "workers": p.Workers, "steps": cfg.steps, "duration": cfg.duration.String(),
	})
	start := time.Now()
	progress := func(done int) {
		s := p.Stats()
		fmt.Fprintf(os.Stderr, "step %d: %d STIs, %d MTIs, %d hints, cov %d edges, %d crash titles\n",
			done, s.STIs, s.MTIs, s.Hints, p.CoverageEdges(), p.Reports.Len())
	}
	if cfg.duration > 0 {
		// Wall-clock mode: run in short slices so findings stream out and
		// -v progress stays live, stopping once the budget is spent.
		deadline := time.Now().Add(cfg.duration)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			slice := time.Until(deadline)
			if slice > 2*time.Second {
				slice = 2 * time.Second
			}
			printFindings(p.RunFor(slice))
			if cfg.verbose {
				progress(int(p.Stats().Steps))
			}
		}
	} else {
		const chunk = 64
		for done := 0; done < cfg.steps && ctx.Err() == nil; {
			n := chunk
			if cfg.steps-done < n {
				n = cfg.steps - done
			}
			printFindings(p.Run(n))
			done += n
			if cfg.verbose && done < cfg.steps {
				progress(done)
			}
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted: finishing up")
	}
	stats := p.Stats()
	cfg.events.Info(0, "campaign_end", map[string]any{
		"steps": stats.Steps, "stis": stats.STIs, "mtis": stats.MTIs,
		"hints": stats.Hints, "cov_edges": p.CoverageEdges(), "reports": p.Reports.Len(),
	})
	printSummary(stats, p.CoverageEdges(), p.Reports.All())
	if cfg.verbose {
		fmt.Println(metricsLine(cfg.reg, stats.Steps, p.Workers, time.Since(start)))
	}
	if cfg.corpusOut != "" {
		writeCorpusFile(cfg.corpusOut, p.WriteCorpus, cfg.events)
	}
}

// runManager serves the fabric API until the campaign completes (or a
// signal arrives), then lingers briefly so connected workers can learn
// the campaign is done and deregister, and finally prints the merged
// global findings and persists the merged corpus.
func runManager(ctx context.Context, cfg dist.ManagerConfig, listen, corpusOut string, events *obs.EventLog) {
	m, err := dist.NewManager(cfg)
	if err != nil {
		fatal(events, "manager: %v", err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(events, "listen: %v", err)
	}
	srv := &http.Server{Handler: m.Handler()}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "manager: fabric API + /metrics on http://%s\n", ln.Addr())

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
wait:
	for !m.Done() {
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "interrupted: finishing up")
			break wait
		case <-tick.C:
		}
	}
	// Let workers observe Done (or the shutdown) and send their
	// deregistering polls before the listener goes away.
	linger := time.Now().Add(10 * time.Second)
	for m.WorkersConnected() > 0 && time.Now().Before(linger) {
		time.Sleep(100 * time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	_ = m.Close()

	all := m.Reports()
	printFindings(all)
	fmt.Printf("\nmanager done: %d/%d shards, %d workers peak-registered, %d corpus programs\n",
		m.ShardsCompleted(), m.ShardsTotal(), m.WorkersSeen(), m.CorpusLen())
	fmt.Printf("findings: %d unique crash titles\n", len(all))
	if corpusOut != "" {
		writeCorpusFile(corpusOut, m.WriteCorpus, events)
	}
}

// runWorker runs the worker loop against the manager; a shutdown signal
// triggers the final deregistering poll inside Worker.Run before this
// returns.
func runWorker(ctx context.Context, cfg dist.WorkerConfig, events *obs.EventLog) {
	w := dist.NewWorker(cfg)
	err := w.Run(ctx)
	if err != nil && err != context.Canceled {
		fatal(events, "worker: %v", err)
	}
	if err == context.Canceled {
		fmt.Fprintln(os.Stderr, "interrupted: deregistered from manager")
	}
	fmt.Printf("worker done: %d leases run\n", w.Leases())
}

func printFindings(rs []*report.Report) {
	for _, r := range rs {
		fmt.Println("=== new finding ===")
		fmt.Print(r.String())
	}
}

func printSummary(stats core.Stats, covEdges int, all []*report.Report) {
	fmt.Printf("\ncampaign done: %d steps, %d STIs, %d MTIs (%d vacuous), %d hints, %d coverage edges\n",
		stats.Steps, stats.STIs, stats.MTIs, stats.Vacuous, stats.Hints, covEdges)
	ooo := 0
	for _, r := range all {
		if r.OOO {
			ooo++
		}
	}
	fmt.Printf("findings: %d unique crash titles, %d classified as OOO bugs\n", len(all), ooo)
}

// metricsLine formats the -v closing line. The rates come from the
// registry's ozz_kernel_acquires_total and ozz_sti_cache_lookups_total,
// the series /metrics serves; the process runs one campaign, so they
// count that campaign's kernels and steps only.
func metricsLine(reg *obs.Registry, steps uint64, workers int, elapsed time.Duration) string {
	acquires := reg.CounterVec("ozz_kernel_acquires_total", "", "source")
	recycled, built := acquires.With("recycled").Value(), acquires.With("built").Value()
	lookups := reg.CounterVec("ozz_sti_cache_lookups_total", "", "outcome")
	hits, misses := lookups.With("hit").Value(), lookups.With("miss").Value()
	var testsPerSec, execsPerWorker float64
	if sec := elapsed.Seconds(); sec > 0 {
		testsPerSec = float64(steps) / sec
		execsPerWorker = float64(recycled+built) / sec / float64(workers)
	}
	return fmt.Sprintf(
		"metrics: %.1f tests/s, %.1f exec/s/worker (%d workers), sti-cache %.0f%% hit, kernel-pool %.0f%% recycled",
		testsPerSec, execsPerWorker, workers, 100*share(hits, misses), 100*share(recycled, built))
}

// share returns a/(a+b), or 0 when both are 0.
func share(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

func writeCorpusFile(path string, write func(w io.Writer) error, events *obs.EventLog) {
	out, err := os.Create(path)
	if err != nil {
		fatal(events, "corpus-out: %v", err)
	}
	if err := write(out); err != nil {
		out.Close()
		fatal(events, "corpus-out: %v", err)
	}
	if err := out.Close(); err != nil {
		fatal(events, "corpus-out: %v", err)
	}
}
