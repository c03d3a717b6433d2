package bench

import (
	"flag"
	"testing"
)

// The Micro* drivers live in micro.go so perfbench can run them through
// testing.Benchmark; these wrappers expose them to `go test -bench`.

func BenchmarkMicroOEMUStep(b *testing.B)           { MicroOEMUStep(b) }
func BenchmarkMicroOEMUCommitTracked(b *testing.B)  { MicroOEMUCommitTracked(b) }
func BenchmarkMicroOEMUDelayFlush(b *testing.B)     { MicroOEMUDelayFlush(b) }
func BenchmarkMicroModelDispatch(b *testing.B)      { MicroModelDispatch(b) }
func BenchmarkMicroSchedYield(b *testing.B)         { MicroSchedYield(b) }
func BenchmarkMicroSchedSwitch(b *testing.B)        { MicroSchedSwitch(b) }
func BenchmarkMicroKmemCheck(b *testing.B)          { MicroKmemCheck(b) }
func BenchmarkMicroCombinatorDispatch(b *testing.B) { MicroCombinatorDispatch(b) }

// TestMicrosAllocationFree: every hot-path driver allocates nothing per
// op. Warm-up allocations (an OEMU ring growing to its working size) are
// amortized over the run, so only a per-op allocation reaches 1.
func TestMicrosAllocationFree(t *testing.T) {
	// The default 1s benchtime makes this take ~13s; 50ms still runs
	// every driver for tens of thousands of ops.
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("50ms"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(old)
	for _, m := range Micros() {
		br := testing.Benchmark(m.Fn)
		if br.N == 0 {
			t.Errorf("%s: driver failed", m.Name)
			continue
		}
		if a := br.AllocsPerOp(); a != 0 {
			t.Errorf("%s: %d allocs/op over %d ops, want 0", m.Name, a, br.N)
		}
	}
}
