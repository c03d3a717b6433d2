package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ozz/internal/hints"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/sched"
	"ozz/internal/trace"
)

// freshRun runs req on e on a runner built for it and never recycled:
// the reference a recycled run must equal.
func freshRun(e *Engine, cfg Config, s Strategy, req Request) *Result {
	r := newRunner()
	defer r.seq.Close()
	defer r.pair.Close()
	w := Worker{e: e, r: r}
	res := w.Run(cfg, s, req)
	w.Flush()
	return res
}

// idleTop returns the runner the next take recycles, or nil.
func idleTop() *runner {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	if n := len(idle.r); n > 0 {
		return idle.r[n-1]
	}
	return nil
}

// outcome returns r without its wall-clock duration.
func outcome(r *Result) Result {
	c := *r
	c.Dur = 0
	return c
}

// normalized returns the outcome of r with empty slices nil: a reused
// result keeps empty, non-nil slices where a fresh one has none.
func normalized(r *Result) Result {
	c := outcome(r)
	if len(c.CallEvents) == 0 {
		c.CallEvents = nil
	}
	if len(c.Returns) == 0 {
		c.Returns = nil
	}
	if len(c.Cov) == 0 {
		c.Cov = nil
	}
	if len(c.Soft) == 0 {
		c.Soft = nil
	}
	return c
}

// TestRecycledKernelEquivalence verifies recycling across engines and the
// static module call tables. Every module's seeds run with the module's
// switches off and on, each alone and behind a call of a partner module
// (bpf registers a function, tls registers four and allocates its proto
// tables at construction), so function-table slots and kmem addresses
// shift between consecutive runs. Before each run, another engine runs
// the same program on the runner the run then recycles, under another
// memory model, the opposite bug switches and no instrumentation. Each
// STI must deep-equal its run on a fresh runner, and each MTI of its
// adjacent pairs, written into one reused result the way a pool
// worker's are, must equal a fresh run's result. With the switches off
// no seed may crash: a module whose New skipped its kernel-side set-up
// would call through a missing function pointer.
func TestRecycledKernelEquivalence(t *testing.T) {
	target := modules.Target()
	e, other := NewObs(nil), NewObs(nil)
	var all []string
	for _, b := range modules.AllBugs() {
		all = append(all, b.Switch)
	}
	others := []*memmodel.Table{memmodel.ARMv8, memmodel.TSO}
	runs := 0
	// recycled runs req on e, on a runner whose last run was other's.
	recycled := func(cfg Config, req Request) *Result {
		opposite := modules.Bugs(all...)
		if cfg.Bugs != nil {
			opposite = nil
		}
		prev := other.Worker()
		prev.Run(Config{Bugs: opposite, Model: others[runs%len(others)]}, Sequential{}, Request{Prog: req.Prog})
		r := prev.r
		prev.Close()
		if idleTop() != r {
			t.Fatal("the other engine's runner is not next on the idle list")
		}
		runs++
		return e.Run(cfg, OOO{}, req)
	}
	var mti Result
	for _, m := range modules.All() {
		var switches []string
		for _, b := range m.Bugs {
			switches = append(switches, b.Switch)
		}
		for si, seed := range m.Seeds {
			for _, bugs := range []modules.BugSet{nil, modules.Bugs(switches...)} {
				for _, prefix := range []string{"", "bpf_sockmap_create()\n", "tls_socket()\n"} {
					p, err := target.Parse(prefix + seed)
					if err != nil {
						t.Fatalf("%s seed %d: %v", m.Name, si, err)
					}
					name := fmt.Sprintf("%s seed %d, %d switches, prefix %q", m.Name, si, len(bugs), prefix)
					cfg := Config{Bugs: bugs, Instrumented: true}
					got := recycled(cfg, Request{Prog: p, Prof: new(trace.Buffer)})
					want := freshRun(e, cfg, OOO{}, Request{Prog: p, Prof: new(trace.Buffer)})
					if !reflect.DeepEqual(outcome(got), outcome(want)) {
						t.Errorf("%s: recycled STI %+v, fresh %+v", name, got, want)
						continue
					}
					if bugs == nil && got.Crash != nil {
						t.Errorf("%s: crashed on the fixed kernel: %s", name, got.Crash.Title)
					}
					if got.Crash != nil {
						continue
					}
					for i := 0; i+1 < len(p.Calls); i++ {
						hs := hints.CalculateModel(got.CallEvents[i], got.CallEvents[i+1], memmodel.LKMM)
						for _, h := range hs[:min(len(hs), 2)] {
							o := Request{Prog: p, I: i, J: i + 1, Hint: h}
							want := freshRun(e, cfg, OOO{}, o)
							o.Out = &mti
							if got := recycled(cfg, o); !reflect.DeepEqual(normalized(got), normalized(want)) {
								t.Errorf("%s, pair (%d, %d): recycled MTI result %+v, fresh %+v", name, i, i+1, got, want)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d recycled runs, each against a fresh one", runs)
	acquires := e.Obs().CounterVec("ozz_kernel_acquires_total", "", "source")
	if recycled, built := acquires.With("recycled").Value(), acquires.With("built").Value(); recycled != uint64(runs) || built != uint64(runs) {
		t.Fatalf("ozz_kernel_acquires_total = (recycled %d, built %d) over %d recycled and %d fresh runs", recycled, built, runs, runs)
	}
}

// idleLen returns the number of idle runners.
func idleLen() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.r)
}

// TestShortLivedEnginesRecycle: engines built for a few runs each and
// dropped, two at a time, the way hunts and repair ops build short-lived
// pools, recycle the process's idle runners instead of building their
// own: the goroutines their runs leave behind (each runner keeps two
// carriers) stay within what two runners in flight hold, not one
// runner's carriers per engine. Width-2 pools and then width-1 pools
// leave one idle runner, whose carriers are all that stay. Sessions
// created and closed the way the benchmarks and micro drivers do then
// return the goroutine count to its baseline.
func TestShortLivedEnginesRecycle(t *testing.T) {
	_, cfg, sti, mti := stepRuns(t)
	runtime.GC()
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sti := Request{Prog: sti.Prog, Prof: new(trace.Buffer)}
			for i := 0; i < 100; i++ {
				e := NewObs(nil)
				e.Run(cfg, OOO{}, sti)
				e.Run(cfg, OOO{}, Request{Prog: mti.Prog, I: mti.I, J: mti.J, Hint: mti.Hint})
			}
		}()
	}
	wg.Wait()
	// Two runners in flight at once, each with a pair session holding
	// two carriers; their sequential sessions run on the caller.
	if n := runtime.NumGoroutine(); n > before+2*2 {
		t.Fatalf("200 short-lived engines left %d goroutines over the %d before, want at most %d", n-before, before, 2*2)
	}

	// A width-w pool holds w engine workers from their first run to
	// Close.
	pool := Request{Prog: mti.Prog, I: mti.I, J: mti.J, Hint: mti.Hint}
	for _, width := range []int{2, 2, 1, 1} {
		ws := make([]*Worker, width)
		for i := range ws {
			ws[i] = NewObs(nil).Worker()
			ws[i].Run(cfg, OOO{}, pool)
		}
		for _, w := range ws {
			w.Close()
		}
		if n := idleLen(); n != width {
			t.Fatalf("after width-%d pools the idle list holds %d runners, want %d", width, n, width)
		}
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("width-1 pools left %d goroutines over the %d before, want at most one runner's 2", n-before, before)
	}

	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := sched.NewSession(sched.Sequential{})
		for id := 0; id < 6; id++ {
			s.Spawn(id, id%4, func(h *sched.Task) { h.Yield(1) })
		}
		if aborted := s.Run(); aborted != nil {
			t.Fatalf("session %d aborted: %v", i, aborted)
		}
		s.Close()
	}
	for try := 0; runtime.NumGoroutine() > base; try++ {
		if try == 100 {
			t.Fatalf("%d goroutines after closing 50 sessions, want the %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleRunnersKeptWhileOverlapping: independent pools whose runs
// overlap keep every runner they held at once, so each round of two
// overlapping width-1 pools recycles the previous round's two runners
// and builds none.
func TestIdleRunnersKeptWhileOverlapping(t *testing.T) {
	_, cfg, _, mti := stepRuns(t)
	e := NewObs(nil)
	const rounds = 20
	for round := 0; round < rounds; round++ {
		var running, done sync.WaitGroup
		running.Add(2)
		done.Add(2)
		for g := 0; g < 2; g++ {
			go func() {
				defer done.Done()
				w := e.Worker()
				w.Run(cfg, OOO{}, Request{Prog: mti.Prog, I: mti.I, J: mti.J, Hint: mti.Hint})
				// Both pools hold their runner before either closes.
				running.Done()
				running.Wait()
				w.Close()
			}()
		}
		done.Wait()
		if n := idleLen(); n != 2 {
			t.Fatalf("round %d: %d idle runners after two overlapping pools, want 2", round, n)
		}
	}
	acquires := e.Obs().CounterVec("ozz_kernel_acquires_total", "", "source")
	if built := acquires.With("built").Value(); built > 2 {
		t.Fatalf("%d rounds of two overlapping pools built %d kernels, want at most 2", rounds, built)
	}
}

// errInjected is the non-crash panic value panicPolicy raises.
var errInjected = fmt.Errorf("injected simulator fault")

// panicPolicy panics with errInjected at the pair's first scheduling
// point: a fault of the simulator itself, not of the simulated kernel.
type panicPolicy struct{ sched.Policy }

func (panicPolicy) OnYield(*sched.Task, trace.InstrID) (int, bool) { panic(errInjected) }

// panicOOO is OOO with its pair policy wrapped in panicPolicy.
type panicOOO struct{ OOO }

func (panicOOO) Pair(req *Request, plan *PairPlan) bool {
	if !(OOO{}).Pair(req, plan) {
		return false
	}
	plan.Policy = panicPolicy{plan.Policy}
	return true
}

// TestPanickedRunStopsCarriers: a run whose session aborts with a value
// that is neither a crash nor a deadlock re-raises it; closing the worker
// then drops the runner, with its pair session's carriers stopped rather
// than left parked.
func TestPanickedRunStopsCarriers(t *testing.T) {
	e, cfg, _, mti := stepRuns(t)
	before := runtime.NumGoroutine()
	r := newRunner()
	w := Worker{e: e, r: r}
	func() {
		defer func() {
			if v := recover(); v != errInjected {
				t.Fatalf("run recovered %v, want the injected fault", v)
			}
		}()
		w.Run(cfg, panicOOO{}, mti)
	}()
	if n := runtime.NumGoroutine(); n != before+2 {
		t.Fatalf("%d goroutines after the panicked run, want the pair's 2 carriers over %d", n, before)
	}
	w.Close()
	if idleTop() == r {
		t.Fatal("the panicked runner was recycled")
	}
	for try := 0; runtime.NumGoroutine() > before; try++ {
		if try == 100 {
			t.Fatalf("%d goroutines after closing the panicked worker, want the %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
