// Rustsync: the paper's Fig. 10 (§10.4) — an OOO bug in Rust-style code
// using Ordering::Relaxed atomics, the classic store-buffering shape.
// Thread 1 stores x and loads y; thread 2 stores y and loads x; an
// assertion demands at least one thread saw the other's store. Under every
// in-order interleaving the assertion holds; with OEMU's delayed stores
// (store-load reordering, which Relaxed permits) both threads read 0.
//
//	go run ./examples/rustsync
package main

import (
	"fmt"

	ozz "ozz"
)

func main() {
	fmt.Println("// In thread 1                          // In thread 2")
	fmt.Println("x.store(1, Ordering::Relaxed);          y.store(1, Ordering::Relaxed);")
	fmt.Println("r1 = y.load(Ordering::Relaxed);         r2 = x.load(Ordering::Relaxed);")
	fmt.Println("// afterwards: assert!(r1 == 1 || r2 == 1)")
	fmt.Println()

	// First: exhaustive in-order exploration cannot violate the
	// assertion — the fuzzer with reordering still runs in-order
	// schedules among its tests, so we show it on the UNINSTRUMENTED
	// baseline expectations by simply noting the corpus test; here we run
	// OZZ and watch the assertion fall to a delayed store.
	p := ozz.NewPool(ozz.Config{
		Modules:  []string{"rustsync"},
		Bugs:     ozz.Bugs("rustsync:relaxed_sb"),
		Seed:     3,
		UseSeeds: true,
	}, 1)
	r := p.RunUntil("kernel BUG: Relaxed store buffering: both threads read 0 in rust_check", 100)
	if r == nil {
		fmt.Println("assertion never violated (unexpected)")
		return
	}
	fmt.Println("OZZ violated the assertion via store-load reordering:")
	fmt.Print(r.String())
	fmt.Println()
	fmt.Println("OEMU is language-agnostic: it reorders memory accesses, so any kernel")
	fmt.Println("code lowered to its access callbacks — C or Rust — is testable (§4.5).")
}
