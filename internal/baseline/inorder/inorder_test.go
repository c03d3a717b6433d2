package inorder

import (
	"strings"
	"testing"

	"ozz/internal/modules"
)

// TestSyzkallerFindsNoOOOBugs: the conventional fuzzer executes the fully
// buggy corpus sequentially and finds nothing — OOO bugs need concurrency
// AND reordering.
func TestSyzkallerFindsNoOOOBugs(t *testing.T) {
	var switches []string
	for _, b := range modules.AllBugs() {
		if b.Type != "" { // all OOO switches on
			switches = append(switches, b.Switch)
		}
	}
	s := NewSyzkallerObs(nil, modules.Bugs(switches...), 1, nil)
	for i := 0; i < 300; i++ {
		s.Step()
	}
	if s.Reports.Len() != 0 {
		t.Fatalf("sequential fuzzing crashed on OOO-only bugs: %v", s.Reports.Titles())
	}
	if s.Execs != 300 {
		t.Fatalf("execs = %d", s.Execs)
	}
	// The baseline shares the engine's kernel recycler, like core.Env
	// campaigns do.
	recycled, built := s.eng.KernelCounters()
	if recycled == 0 {
		t.Fatalf("kernel pool never recycled (recycled=%d built=%d)", recycled, built)
	}
	if rate := s.eng.RecycleRate(); rate < 0.5 {
		t.Fatalf("recycle rate = %v, want > 0.5", rate)
	}
}

// TestInterleaverBlindToOOOBugs is §2.3's central claim: controlling thread
// interleaving alone — with in-order memory — cannot manifest an OOO bug.
// The Fig. 1 bug survives hundreds of random schedules untouched.
func TestInterleaverBlindToOOOBugs(t *testing.T) {
	iv := NewInterleaver([]string{"watchqueue"}, modules.Bugs("watchqueue:pipe_wmb", "watchqueue:pipe_rmb"), 1)
	target := modules.Target("watchqueue")
	p, err := target.Parse("r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	titles := iv.Hunt(p, 200)
	for _, title := range titles {
		if strings.Contains(title, "pipe_read") {
			t.Fatalf("interleaving-only baseline triggered an OOO bug: %v", titles)
		}
	}
}

// TestInterleaverFindsPlainRace: the same baseline DOES find an ordinary
// interleaving bug (the vmci use-after-free) — the blindness is specific to
// reordering, not to concurrency.
func TestInterleaverFindsPlainRace(t *testing.T) {
	iv := NewInterleaver([]string{"vmci"}, modules.Bugs("vmci:uaf_race"), 2)
	target := modules.Target("vmci")
	p, err := target.Parse("r0 = vmci_create()\nvmci_qp_alloc(r0, 0x10)\nvmci_qp_wait(r0)\nvmci_qp_destroy(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	titles := iv.Hunt(p, 100)
	found := false
	for _, title := range titles {
		if strings.Contains(title, "use-after-free") {
			found = true
		}
	}
	if !found {
		t.Fatalf("interleaving baseline missed the plain UAF race: %v", titles)
	}
	// Recycled kernels for the pair executor too.
	recycled, built := iv.eng.KernelCounters()
	if recycled == 0 {
		t.Fatalf("kernel pool never recycled (recycled=%d built=%d)", recycled, built)
	}
	if rate := iv.eng.RecycleRate(); rate < 0.5 {
		t.Fatalf("recycle rate = %v, want > 0.5", rate)
	}
}

// TestSyzkallerBaselineClean: on the fixed corpus, nothing crashes.
func TestSyzkallerBaselineClean(t *testing.T) {
	s := NewSyzkallerObs(nil, nil, 3, nil)
	for i := 0; i < 200; i++ {
		s.Step()
	}
	if s.Reports.Len() != 0 {
		t.Fatalf("clean corpus crashed: %v", s.Reports.Titles())
	}
}
