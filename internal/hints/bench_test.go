package hints_test

import (
	"testing"

	"ozz/internal/core"
	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/trace"
)

// BenchmarkCalculateModel measures hint calculation over every call pair
// of the modules' seed programs, as profiled by their STI runs, in one
// reused Scratch as a campaign worker computes them. One op is one pair;
// most pairs, as in a campaign, share no location.
func BenchmarkCalculateModel(b *testing.B) {
	target := modules.Target()
	env := core.NewEnv(nil, nil)
	var pairs [][2][]trace.Event
	for _, src := range modules.Seeds() {
		p, err := target.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		sti := env.RunSTI(p)
		if sti.Crash != nil {
			continue
		}
		for i := range sti.CallEvents {
			for j := i + 1; j < len(sti.CallEvents); j++ {
				if len(sti.CallEvents[i]) > 0 && len(sti.CallEvents[j]) > 0 {
					pairs = append(pairs, [2][]trace.Event{sti.CallEvents[i], sti.CallEvents[j]})
				}
			}
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no profiled pairs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sc hints.Scratch
	n := 0
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		n += len(sc.CalculateModel(pr[0], pr[1], memmodel.LKMM))
	}
	b.ReportMetric(float64(n)/float64(b.N), "hints/op")
}
