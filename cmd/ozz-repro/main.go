// Command ozz-repro reproduces a single corpus bug by its switch name and
// prints the full report: the crash title, the hypothetical-barrier
// location, the reordered access sites, and the triggering program —
// everything a developer needs to understand the out-of-order execution
// (§4.4).
//
// Usage:
//
//	ozz-repro -bug tls:sk_prot_wmb [-budget 200] [-seed 42]
//	ozz-repro -list
//
// Every bug reproduces under the migration-aware OOO executor, so
// `ozz-repro -bug sbitmap:freed_order` reproduces Table 4 #6 through a
// real cross-CPU migration with no extra flags (docs/SCHEDULING.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"ozz/internal/core"
	"ozz/internal/modules"
)

func main() {
	var (
		bug    = flag.String("bug", "", "bug switch to reproduce (see -list)")
		budget = flag.Int("budget", 200, "max fuzzer steps")
		seed   = flag.Int64("seed", 42, "campaign seed")
		list   = flag.Bool("list", false, "list bug switches and exit")
		fix    = flag.Bool("repair", false, "search for a fence repair and print the suggestion (docs/REPAIR.md)")
	)
	flag.Parse()

	if *list {
		for _, b := range modules.AllBugs() {
			fmt.Printf("%-28s [%s] %s%s\n", b.Switch, b.ID, b.Title, b.SoftTitle)
		}
		return
	}
	b, ok := modules.FindBug(*bug)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown bug switch %q (try -list)\n", *bug)
		os.Exit(2)
	}

	p := core.NewPool(core.Config{
		Modules:  []string{b.Module},
		Bugs:     modules.Bugs(b.Switch),
		Seed:     *seed,
		UseSeeds: true,
		Repair:   *fix,
	}, 1)
	want := b.Title
	if want == "" {
		want = b.SoftTitle
	}
	fmt.Printf("reproducing %s (%s, %s, kernel %s)...\n", b.ID, b.Switch, b.Subsystem, b.KernelVersion)
	r := p.RunUntil(want, *budget)
	if r == nil {
		fmt.Printf("NOT reproduced within %d steps (%d hypothetical-barrier tests)\n", *budget, p.Stats().MTIs)
		if b.Note != "" {
			fmt.Printf("note: %s\n", b.Note)
		}
		os.Exit(1)
	}
	fmt.Println("reproduced:")
	fmt.Print(r.String())
	if *fix {
		if rr := p.RepairResult(want); rr != nil {
			fmt.Print(rr.Render())
		} else {
			fmt.Println("no fence repair found for this finding")
		}
	}
}
