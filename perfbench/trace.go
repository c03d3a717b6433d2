package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ozz/internal/engine"
	"ozz/internal/obs"
)

// span is one traced interval: a name, its parent, its timing, and the
// registry counter and histogram deltas over it. Self time is the duration
// minus the part covered by child spans.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	Dur    float64            `json:"dur_s"`
	Self   float64            `json:"self_s"`
	Attrs  map[string]any     `json:"attrs,omitempty"`
	Delta  map[string]float64 `json:"delta,omitempty"`

	begin map[string]float64
	child float64
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, so untraced code paths call the same methods.
type tracer struct {
	probe *probe
	t0    time.Time
	spans []*span
	stack []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one. The registry is read
// before the start time, so the read's cost lands in the parent's self
// time.
func (t *tracer) begin(name string, attrs map[string]any) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Attrs: attrs, begin: t.probe.read()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	s.Start = time.Since(t.t0).Seconds()
	return s
}

// end closes s, which must be the innermost open span.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.Dur = time.Since(t.t0).Seconds() - s.Start
	s.Self = s.Dur - s.child
	s.Delta = diff(t.probe.read(), s.begin)
	s.begin = nil
	t.stack = t.stack[:len(t.stack)-1]
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += s.Dur
	}
}

// event records a zero-length span under the innermost open one.
func (t *tracer) event(name string, attrs map[string]any) {
	if t == nil {
		return
	}
	s := &span{ID: len(t.spans) + 1, Name: name, Attrs: attrs, Start: time.Since(t.t0).Seconds()}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
}

// selfTimes sums self time per span name.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.Self
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageNames are the pipeline stages of ozz_stage_duration_seconds.
var stageNames = []string{"generate", "profile", "hints", "mti", "triage", "merge", "repair"}

// probe reads a fixed set of registry series through resolved handles,
// cheap enough to read at every span boundary. Each key names one value
// layerMetrics and the span deltas use; some sum several series of one
// family.
type probe struct {
	reg   *obs.Registry
	keys  []string
	reads []func() float64
}

func newProbe(reg *obs.Registry) *probe { return &probe{reg: reg} }

// read returns the current values, or nil before the first campaign has
// registered the metric families (resolving a handle earlier would
// register a family with an empty help text).
func (p *probe) read() map[string]float64 {
	if p == nil {
		return nil
	}
	if p.reads == nil && !p.resolve() {
		return nil
	}
	out := make(map[string]float64, len(p.keys))
	for i, k := range p.keys {
		out[k] = p.reads[i]()
	}
	return out
}

func (p *probe) resolve() bool {
	names := p.reg.Names()
	if i := sort.SearchStrings(names, "ozz_engine_runs_total"); i == len(names) || names[i] != "ozz_engine_runs_total" {
		return false
	}
	reg := p.reg
	sum := func(key string, cs ...*obs.Counter) {
		p.add(key, func() float64 {
			n := uint64(0)
			for _, c := range cs {
				n += c.Value()
			}
			return float64(n)
		})
	}
	for _, c := range [][2]string{
		{"steps", "ozz_campaign_steps_total"}, {"mtis", "ozz_campaign_mtis_total"},
		{"hints", "ozz_campaign_hints_total"}, {"vacuous", "ozz_campaign_vacuous_mtis_total"},
		{"pairs", "ozz_mti_pairs_total"}, {"fired", "ozz_mti_fired_total"},
		{"yields", "ozz_sched_yields_total"}, {"preemptions", "ozz_sched_preemptions_total"},
		{"migrations", "ozz_sched_migrations_total"}, {"delayed", "ozz_oemu_delayed_stores_total"},
		{"versioned", "ozz_oemu_versioned_loads_total"}, {"searches", "ozz_repair_searches_total"},
		{"enumerated", "ozz_repair_candidates_enumerated_total"},
		{"validated", "ozz_repair_candidates_validated_total"},
	} {
		sum(c[0], reg.Counter(c[1], ""))
	}
	children := func(name, label, prefix string, values ...string) []*obs.Counter {
		v := reg.CounterVec(name, "", label)
		var cs []*obs.Counter
		for _, x := range values {
			cs = append(cs, v.With(x))
			if prefix != "" {
				sum(prefix+"."+x, v.With(x))
			}
		}
		return cs
	}
	children("ozz_reports_total", "outcome", "reports", "new", "duplicate")
	children("ozz_kernel_acquires_total", "source", "kernel", "recycled", "built")
	children("ozz_sti_cache_lookups_total", "outcome", "sti", "hit", "miss")
	children("ozz_plan_cache_lookups_total", "outcome", "plan", "hit", "miss")
	children("ozz_repair_candidates_rejected_total", "reason", "rejected", "legality", "closure", "minimality")
	// The flush causes and run shapes the engine labels its series with.
	sum("flushes", children("ozz_oemu_flushes_total", "cause", "", "smp_wmb", "smp_mb", "release", "interrupt", "syscall_exit")...)
	runs := reg.CounterVec("ozz_engine_runs_total", "", "strategy", "shape")
	durs := reg.HistogramVec("ozz_engine_run_duration_seconds", "", nil, "strategy")
	var rc []*obs.Counter
	var hs []*obs.Histogram
	for _, st := range engine.StrategyNames {
		rc = append(rc, runs.With(st, "sequential"), runs.With(st, "pair"))
		hs = append(hs, durs.With(st))
	}
	sum("runs", rc...)
	p.add("run.sum", func() float64 {
		t := 0.0
		for _, h := range hs {
			t += h.Sum()
		}
		return t
	})
	p.add("run.count", func() float64 {
		n := uint64(0)
		for _, h := range hs {
			n += h.Count()
		}
		return float64(n)
	})
	stages := reg.HistogramVec("ozz_stage_duration_seconds", "", nil, "stage")
	for _, s := range stageNames {
		p.add("stage."+s, stages.With(s).Sum)
	}
	p.add("acquire.sum", reg.Histogram("ozz_kernel_acquire_duration_seconds", "", nil).Sum)
	return true
}

func (p *probe) add(key string, read func() float64) {
	p.keys = append(p.keys, key)
	p.reads = append(p.reads, read)
}

// diff returns the nonzero changes from before to after.
func diff(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
