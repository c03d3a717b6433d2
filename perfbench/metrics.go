package main

import (
	"fmt"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerMedian returns the lower middle value, so a median of counts stays
// an exact count.
func lowerMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[(len(xs)-1)/2]
}

// tailOf returns the highest percentile of xs with at least ten samples
// beyond it, that percentile, and the sample count. With ten samples or
// fewer no such percentile exists and the minimum is returned as p0.
func tailOf(xs []float64) (v, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	i := max(0, n-11)
	return sorted(xs)[i], 100 * float64(i) / float64(n), n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd returns the end-to-end metrics every workload reports, the
// bounded set of BENCHMARK.json. Their times are process CPU seconds:
// on a shared machine the wall clock of the same run swings by 2x with
// other tenants' load, while CPU time moves by a few percent. The
// wall-clock forms are in workloadMetrics. README.md gives the meaning of
// each metric per workload.
func (p *pass) endToEnd() map[string]metric {
	tail, _, _ := tailOf(p.latCPU)
	return map[string]metric{
		"setup_s":         {median(p.setup), "s"},
		"cpu_s":           {p.cpu, "s"},
		"peak_heap_mb":    {float64(p.heapMax) / (1 << 20), "MB"},
		"tests_per_cpu_s": {median(p.testsCPU), "1/s"},
		"execs_per_cpu_s": {median(p.execsCPU), "1/s"},
		"op_p50_cpu_s":    {median(p.latCPU), "s"},
		"op_tail_cpu_s":   {tail, "s"},
		"op_mtis_p50":     {lowerMedian(p.mtis), "count"},
		"op_ok_ratio":     {ratio(float64(p.ok), float64(p.ops)), "ratio"},
	}
}

// workloadMetrics returns the workload's end-to-end metrics under their
// workload-specific names, with wall-clock times.
func (p *pass) workloadMetrics() []named {
	e := p.endToEnd()
	tail, pct, n := tailOf(p.lat)
	tailNote := fmt.Sprintf("(p%.1f of %d samples)", pct, n)
	s := func(v float64) metric { return metric{v, "s"} }
	perS := func(v float64) metric { return metric{v, "1/s"} }
	out := []named{
		{"setup_s", e["setup_s"], fmt.Sprintf("(median of %d set-ups)", len(p.setup))},
		{"cpu_s", e["cpu_s"], ""},
		{"peak_heap_mb", e["peak_heap_mb"], ""},
	}
	switch p.workload {
	case "hunt":
		out = append(out,
			named{"ttb_p50_s", s(median(p.lat)), fmt.Sprintf("(over %d bugs found within the cap)", n)},
			named{"ttb_tail_s", s(tail), tailNote},
			named{"ttb_mtis_p50", e["op_mtis_p50"], ""},
			named{"hunt_found", e["op_ok_ratio"], fmt.Sprintf("(%d of %d bug hunts)", p.ok, p.ops)},
			named{"hunt_s", s(p.wall), ""})
	case "clean":
		out = append(out,
			named{"tests_per_s", perS(median(p.tests)), "(median over campaigns)"},
			named{"execs_per_s", perS(median(p.execs)), "(median over campaigns)"})
	case "repair":
		out = append(out,
			named{"repair_p50_s", s(median(p.lat)), "(per-op medians over rounds)"},
			named{"repair_tail_s", s(tail), tailNote},
			named{"repair_fixed", e["op_ok_ratio"], fmt.Sprintf("(%d of %d ops)", p.ok, p.ops)})
	}
	return out
}
