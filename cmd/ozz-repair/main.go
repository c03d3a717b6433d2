// Command ozz-repair turns a crashing reproducer into a ranked,
// model-validated fence-repair suggestion: reproduce the bug (or pick a
// litmus shape), search barrier insertions and access strengthenings
// smallest-first, validate every candidate against the reference
// enumerator (legality) and the live engine (closure), and print the
// minimal patch — "insert smp_wmb between site A and site B" — annotated
// with the registered memory models it fixes.
//
// Usage:
//
//	ozz-repair -bug watchqueue:pipe_wmb [-budget 200] [-seed 42] [-model lkmm] [-json]
//	ozz-repair -litmus "MP+wmb only" [-model lkmm] [-max-fences 2] [-json]
//	ozz-repair -list
//
// In -bug mode the campaign runs the repair search with its defaults, so
// -max-fences, which bounds the litmus search, is rejected there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ozz/internal/core"
	"ozz/internal/lkmm"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/repair"
)

// reportDoc is the -json output document.
type reportDoc struct {
	// Mode is "bug" (in-vivo) or "litmus".
	Mode string `json:"mode"`
	// Target is the bug switch or suite entry name requested.
	Target string `json:"target"`
	// Title is the reproduced crash title (bug mode).
	Title string `json:"title,omitempty"`
	// Reproduced reports whether the bug reproduced (bug mode; litmus
	// shapes always "reproduce" by enumeration).
	Reproduced bool `json:"reproduced"`
	// Repair is the structured search result.
	Repair *repair.Result `json:"repair,omitempty"`
	// OK marks a non-empty validated suggestion list.
	OK bool `json:"ok"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ozz-repair", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		bug       = fs.String("bug", "", "bug switch to reproduce and repair (see -list)")
		litmus    = fs.String("litmus", "", "litmus suite entry to repair instead of a live bug")
		list      = fs.Bool("list", false, "list bug switches and litmus suite entries, then exit")
		jsonOut   = fs.Bool("json", false, "emit the machine-readable report")
		budget    = fs.Int("budget", 200, "max fuzzer steps to reproduce the bug")
		seed      = fs.Int64("seed", 42, "campaign seed")
		modelName = fs.String("model", "lkmm", "primary memory model to validate against")
		maxFences = fs.Int("max-fences", 2, "largest candidate size searched (-litmus only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "bug switches:")
		for _, b := range modules.AllBugs() {
			fmt.Fprintf(stdout, "  %-28s [%s] %s%s\n", b.Switch, b.ID, b.Title, b.SoftTitle)
		}
		fmt.Fprintln(stdout, "litmus suite entries:")
		for _, e := range lkmm.Suite() {
			fmt.Fprintf(stdout, "  %-28s %s\n", e.Test.Name, e.Comment)
		}
		return 0
	}
	if (*bug == "") == (*litmus == "") {
		fmt.Fprintln(stdout, "exactly one of -bug or -litmus is required (try -list)")
		return 2
	}
	if *bug != "" {
		bounded := false
		fs.Visit(func(f *flag.Flag) { bounded = bounded || f.Name == "max-fences" })
		if bounded {
			fmt.Fprintln(stdout, "-max-fences applies to -litmus only")
			return 2
		}
	}
	mm, err := memmodel.ByName(*modelName)
	if err != nil {
		fmt.Fprintf(stdout, "unknown model %q (have %v)\n", *modelName, memmodel.Names())
		return 2
	}

	doc := reportDoc{}
	if *litmus != "" {
		doc.Mode, doc.Target = "litmus", *litmus
		var test *lkmm.Test
		for _, e := range lkmm.Suite() {
			if e.Test.Name == *litmus {
				test = e.Test
				break
			}
		}
		if test == nil {
			fmt.Fprintf(stdout, "unknown litmus suite entry %q (try -list)\n", *litmus)
			return 2
		}
		doc.Reproduced = true
		doc.Repair = repair.Litmus(test, repair.Options{Model: mm, MaxFences: *maxFences})
	} else {
		doc.Mode, doc.Target = "bug", *bug
		b, ok := modules.FindBug(*bug)
		if !ok {
			fmt.Fprintf(stdout, "unknown bug switch %q (try -list)\n", *bug)
			return 2
		}
		p := core.NewPool(core.Config{
			Modules:  []string{b.Module},
			Bugs:     modules.Bugs(b.Switch),
			Seed:     *seed,
			UseSeeds: true,
			Model:    mm,
			Repair:   true,
		}, 1)
		want := b.Title
		if want == "" {
			want = b.SoftTitle
		}
		doc.Title = want
		r := p.RunUntil(want, *budget)
		if r == nil {
			if *jsonOut {
				emit(stdout, &doc)
			} else {
				fmt.Fprintf(stdout, "NOT reproduced within %d steps (%d hypothetical-barrier tests)\n",
					*budget, p.Stats().MTIs)
			}
			return 1
		}
		doc.Reproduced = true
		doc.Repair = p.RepairResult(want)
		if !*jsonOut {
			fmt.Fprint(stdout, r.String())
		}
	}
	doc.OK = doc.Repair != nil && len(doc.Repair.Suggestions) > 0

	if *jsonOut {
		emit(stdout, &doc)
	} else if doc.Repair != nil {
		fmt.Fprint(stdout, doc.Repair.Render())
	}
	if !doc.OK {
		return 1
	}
	return 0
}

func emit(w io.Writer, doc *reportDoc) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(w, "encoding report: %v\n", err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}
