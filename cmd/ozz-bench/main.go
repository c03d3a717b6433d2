// Command ozz-bench regenerates the paper's evaluation artifacts: every
// table and headline number of §6 (see EXPERIMENTS.md for the index).
//
// Usage:
//
//	ozz-bench -table 3            # Table 3: the 11 new bugs
//	ozz-bench -table 4            # Table 4: known-bug reproduction
//	ozz-bench -table 5            # Table 5: LMBench instrumentation overhead
//	ozz-bench -table throughput   # §6.3.2: OZZ vs syzkaller throughput
//	ozz-bench -table heuristic    # §4.3: triggering-hint rank distribution
//	ozz-bench -table ofence       # §6.4: static paired-barrier comparison
//	ozz-bench -table kcsan        # §7: race-detector comparison + case studies
//	ozz-bench -table all
//
// With -metrics-addr and/or -events, every campaign the harnesses run is
// instrumented into one shared registry and event log (see
// docs/OBSERVABILITY.md) — counters are cumulative across all campaigns of
// the invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ozz/internal/bench"
	"ozz/internal/obs"
)

func main() {
	table := flag.String("table", "all", "which artifact to regenerate: 3|4|5|throughput|heuristic|ofence|kcsan|all")
	budget := flag.Int("budget", 80, "fuzzer steps per bug for the campaign tables")
	iters := flag.Int("iters", 5000, "operations per LMBench workload")
	tpBudget := flag.Duration("tp-budget", time.Second, "wall-clock budget per side of the throughput comparison")
	workers := flag.Bool("workers", true, "include the worker-scaling rows (1, 2, 4, GOMAXPROCS) in the throughput table")
	metricsAddr := flag.String("metrics-addr", "", `serve /metrics and /debug/pprof/ on this address while tables regenerate`)
	eventsPath := flag.String("events", "", "append campaign events as JSON lines to this file")
	flag.Parse()

	reg := obs.NewRegistry()
	var events *obs.EventLog
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "events: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		events = obs.NewEventLog(f, obs.LevelInfo)
	}
	if *metricsAddr != "" {
		bound, stop, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", bound)
	}
	bench.Instrument(reg, events)

	valid := map[string]bool{"3": true, "4": true, "5": true, "throughput": true, "heuristic": true, "ofence": true, "kcsan": true, "all": true}
	if !valid[*table] {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	run := func(name string) bool { return *table == name || *table == "all" }

	if run("3") {
		fmt.Println("== Table 3: new OOO bugs discovered by OZZ ==")
		fmt.Print(bench.FormatTable3(bench.RunTable3(*budget)))
		fmt.Println()
	}
	if run("4") {
		fmt.Println("== Table 4: previously-reported OOO bugs (reproduction) ==")
		rows := bench.RunTable4(*budget)
		pinned := bench.RunSbitmapPinned(*budget)
		fmt.Print(bench.FormatTable4(rows, pinned))
		fmt.Println("(* = wrong-return-value symptom, not a crash)")
		fmt.Println()
	}
	if run("5") {
		fmt.Println("== Table 5: LMBench microbenchmark (plain vs OEMU-instrumented kernel) ==")
		fmt.Print(bench.FormatLMBench(bench.RunLMBench(*iters)))
		fmt.Println("(paper overheads on real hardware: 3.0x - 59.0x)")
		fmt.Println()
	}
	if run("throughput") {
		fmt.Println("== §6.3.2: fuzzing throughput ==")
		var ws []int
		if *workers {
			ws = []int{1, 2, 4}
			if n := runtime.GOMAXPROCS(0); n > 4 {
				ws = append(ws, n)
			}
		}
		fmt.Print(bench.MeasureThroughputWorkers(*tpBudget, nil, nil, ws).Format())
		fmt.Println("(paper: syzkaller 7.33 tests/s, OZZ 0.92 tests/s — 7.9x slower)")
		fmt.Println()
	}
	if run("heuristic") {
		fmt.Println("== §4.3: search-heuristic validation (triggering hint ranks) ==")
		rows, dist := bench.RunHeuristic(*budget)
		fmt.Print(bench.FormatHeuristic(rows, dist))
		fmt.Println()
	}
	if run("kcsan") {
		fmt.Println("== §7 + case studies: KCSAN (sampling race detection) vs OZZ ==")
		fmt.Print(bench.FormatKCSAN(bench.RunKCSANComparison(*budget)))
		fmt.Println()
	}
	if run("ofence") {
		fmt.Println("== §6.4: OFence (static paired-barrier matching) vs the 11 new bugs ==")
		rows, misses := bench.RunOFence()
		fmt.Print(bench.FormatOFence(rows, misses))
		fmt.Println()
	}
}
