// Triage: the post-discovery pipeline — given a crashing campaign finding
// (a core.Finding: program, pair, hint and title), (1) classify it as a
// genuine OOO bug by re-running the same schedule with an empty reorder
// set, Finding.Request(nil, nil) (the paper's authors triaged 61 crash
// titles manually, §6.1; here it is automatic), and (2) minimize the
// reproducer syzkaller-style while Finding.Reproduced still holds.
//
//	go run ./examples/triage
package main

import (
	"fmt"
	"strings"

	"ozz/internal/core"
	"ozz/internal/hints"
	"ozz/internal/modules"

	ozz "ozz"
)

func main() {
	const title = "KASAN: slab-out-of-bounds Read in rds_loop_xmit"
	env := ozz.NewEnv([]string{"rds"}, ozz.Bugs("rds:clear_bit_unlock"))
	target := modules.Target("rds")
	p, err := target.Parse(
		"r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\nrds_loop_xmit(r0)\n")
	if err != nil {
		panic(err)
	}

	// Find a reproducing (pair, hint): a finding whose hint's own reorder
	// sites reproduce the title.
	sti := env.RunSTI(p)
	var f *core.Finding
	for _, pr := range [][2]int{{2, 3}, {1, 2}, {2, 4}} {
		for _, h := range hints.Calculate(sti.CallEvents[pr[0]], sti.CallEvents[pr[1]]) {
			cand := core.Finding{Prog: p, I: pr[0], J: pr[1], Hint: h, Title: title}
			if cand.Reproduced(env.RunMTI(cand.Request(h.Reorder, nil))) {
				f = &cand
				break
			}
		}
		if f != nil {
			break
		}
	}
	if f == nil {
		fmt.Println("no reproducer found (unexpected)")
		return
	}
	fmt.Printf("reproduced: %s\n", title)
	fmt.Printf("  pair: calls %d and %d; hint: %s, sched=%s\n",
		f.I, f.J, f.Hint.Type(), modules.SiteName(f.Hint.Sched))

	// Step 1 — OOO triage: same schedule, no reorder sites.
	if !f.Reproduced(env.RunMTI(f.Request(nil, nil))) {
		fmt.Println("  triage: crash vanishes in order -> genuine OOO bug")
	} else {
		fmt.Println("  triage: crash persists in order -> plain interleaving race")
	}

	// Step 2 — minimize the reproducer.
	minned := env.Minimize(*f)
	fmt.Printf("  minimized: %d calls -> %d calls (pair now %d,%d)\n",
		len(p.Calls), len(minned.Prog.Calls), minned.I, minned.J)
	for _, line := range strings.Split(strings.TrimRight(minned.Prog.String(), "\n"), "\n") {
		fmt.Println("    " + line)
	}

	// Contrast: a plain interleaving race fails the triage — the vmci
	// use-after-free reproduces on a schedule alone (destroy frees the
	// pair between the waiter's pointer load and its dereference), with
	// no reorder sites.
	fmt.Println()
	fmt.Println("contrast — the vmci use-after-free (a plain race, no reordering needed):")
	env2 := ozz.NewEnv([]string{"vmci"}, ozz.Bugs("vmci:uaf_race"))
	target2 := modules.Target("vmci")
	p2, err := target2.Parse("r0 = vmci_create()\nvmci_qp_alloc(r0, 0x10)\nvmci_qp_wait(r0)\nvmci_qp_destroy(r0)\n")
	if err != nil {
		panic(err)
	}
	raceHint := &hints.Hint{
		Reorderer: 0, // the waiter carries the breakpoint
		Test:      hints.StoreBarrierTest,
		Sched:     modules.SiteByName("vmci_qp_wait:READ_ONCE"),
		SchedOcc:  1,
	}
	race := core.Finding{Prog: p2, I: 2, J: 3, Hint: raceHint}
	res := env2.RunMTI(race.Request(nil, nil))
	if res.Crash != nil {
		fmt.Printf("  %s\n", res.Crash.Title)
		fmt.Println("  triage: crash reproduces with reordering OFF -> plain interleaving race")
	} else {
		fmt.Println("  (schedule did not hit the race)")
	}
}
