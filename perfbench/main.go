// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the OZZ campaign executor (core.Pool) from a
// seed, checks the results, and prints every end-to-end metric by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// workload runs twice, untraced then traced, and the metrics are the
// per-layer set plus the tracing overhead. See README.md for the workloads,
// the metrics, and which layer metric should move which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hunt|clean|repair|all --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"hunt", "clean", "repair"}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	trace    bool
	traceOut string
	sizes    sizes
}

// run parses the command line, runs the benchmark, and returns the exit
// code: 0 when every correctness check passed, 1 when one failed, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: hunt, clean, repair, or all")
	seed := fs.Int64("seed", 1, "workload seed; every campaign seed is derived from it")
	seconds := fs.Int("seconds", 25, "nominal run length; sets how much fixed work a run does")
	traceFlag := fs.Int("trace", 0, "1 runs the workload untraced and traced and prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-seed<seed>.jsonl; -workload all appends .<workload>)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !isWorkload(*workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want hunt, clean, repair, or all)\n", *workload)
		return 2
	}
	sz := sizesFor(*seconds)
	if *traceFlag == 1 {
		sz = sizesFor(max(1, *seconds/2))
	}
	var results []*result
	for _, w := range names {
		out := *traceOut
		switch {
		case out == "":
			out = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w, *seed))
		case len(names) > 1:
			out += "." + w
		}
		results = append(results, execute(options{
			workload: w,
			seed:     *seed,
			trace:    *traceFlag == 1,
			traceOut: out,
			sizes:    sz,
		}, stdout))
	}
	line := finalLine(results, *workload == "all")
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func isWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// sizes fixes how much work one run does. Every run of a given size does
// the same deterministic work, so two builds are compared on equal inputs.
type sizes struct {
	// Hunts is the number of derived seeds hunted, HuntCap the step cap of
	// one hunt.
	Hunts, HuntCap int
	// Campaigns is the number of clean campaigns, CleanSteps their length.
	Campaigns, CleanSteps int
	// Rounds is the number of passes over the repair op list.
	Rounds int
	// SetupReps is how many times set-up is repeated for setup_s.
	SetupReps int
	// MicroTime is the benchtime of each micro driver in a traced run.
	MicroTime time.Duration
}

// Nominal costs on a 2-core x86-64 container: a 2000-step hunt takes about
// 0.3 s, a 10240-step clean campaign about 1.5 s, a repair round about 5 s.
// A traced run does two passes of half this size.
func sizesFor(seconds int) sizes {
	per := func(unit float64) int { return max(1, int(math.Round(float64(seconds)/unit))) }
	return sizes{
		Hunts: per(0.3), HuntCap: 2000,
		Campaigns: per(1.5), CleanSteps: 10 * cleanOp,
		Rounds:    per(5),
		SetupReps: 31,
		MicroTime: 200 * time.Millisecond,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	// failures names every failed correctness check; any makes the run
	// incorrect. Failed ops only count in failed.
	failures []string
	// metrics holds the metrics the JSON line reports: end-to-end
	// (untraced) or per-layer (traced).
	metrics map[string]metric
	// byName holds the end-to-end metrics under their workload-specific
	// names (ttb_p50_s, tests_per_s, repair_fixed, ...).
	byName []named
}

type named struct {
	name string
	m    metric
	note string
}

// jsonLine is the final output line.
type jsonLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func finalLine(results []*result, all bool) jsonLine {
	line := jsonLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		line.Attempted += r.attempted
		line.Failed += r.failed
		if len(r.failures) > 0 {
			line.Correct = false
		}
		if !all {
			line.Metrics = r.metrics
			continue
		}
		for _, n := range r.byName {
			line.Metrics[r.workload+"."+n.name] = n.m
		}
	}
	return line
}

// execute runs one workload: the untraced pass always, and with tracing
// the traced pass and the micro drivers too. It prints a human-readable
// report to w.
func execute(o options, w io.Writer) *result {
	fmt.Fprintf(w, "workload %s  seed %d  gomaxprocs %d\n", o.workload, o.seed, runtime.GOMAXPROCS(0))
	plain := runPass(o, nil)
	res := &result{workload: o.workload, attempted: plain.attempted, failed: plain.failed, failures: plain.failures}
	res.metrics = plain.endToEnd()
	res.byName = plain.workloadMetrics()
	printPass(w, plain)
	if o.trace {
		tr := newTracer()
		traced := runPass(o, tr)
		micros := runMicros(tr, o.sizes.MicroTime)
		res.failures = append(res.failures, traced.failures...)
		if plain.digest() != traced.digest() {
			res.failures = append(res.failures, "determinism: traced pass counts differ from the untraced pass")
		}
		res.metrics = layerMetrics(traced, tr, micros, plain.cpu)
		fmt.Fprintf(w, "traced pass: cpu %.3f s, wall %.3f s (untraced: cpu %.3f s, wall %.3f s), digest %s\n",
			traced.cpu, traced.wall, plain.cpu, plain.wall, traced.digest())
		printLayers(w, res.metrics)
		if err := tr.write(o.traceOut); err != nil {
			res.failures = append(res.failures, "trace: "+err.Error())
		} else {
			fmt.Fprintf(w, "spans: %d written to %s\n", len(tr.spans), o.traceOut)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	return res
}

func printPass(w io.Writer, p *pass) {
	fmt.Fprintf(w, "%s\n", p.sizeNote)
	for _, n := range p.workloadMetrics() {
		fmt.Fprintf(w, "  %-14s %14.6g %-6s %s\n", n.name, n.m.Value, n.m.Unit, n.note)
	}
	e2e := p.endToEnd()
	keys := sortedKeys(e2e)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, e2e[k].Value))
	}
	fmt.Fprintf(w, "  end-to-end: %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "  counts: %s\n", p.countLine())
	fmt.Fprintf(w, "  digest: %s\n", p.digest())
	for _, f := range p.failedOps {
		fmt.Fprintln(w, "  failed op:", f)
	}
}

func printLayers(w io.Writer, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys(ms map[string]metric) []string {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
