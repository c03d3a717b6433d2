package kcsan

import (
	"strings"
	"testing"

	"ozz/internal/modules"
)

// TestKCSANFindsPlainRace: two unannotated concurrent accesses to the same
// location are reported (the detector works).
func TestKCSANFindsPlainRace(t *testing.T) {
	// gsm's buggy reader uses plain loads of gsm->dlci_count, racing with
	// gsm_activate's plain store.
	d := New([]string{"gsm"}, modules.Bugs("gsm:dlci_config_rmb"), 1)
	target := modules.Target("gsm")
	p, err := target.Parse("r0 = gsm_open()\ngsm_activate(r0, 0x0)\ngsm_dlci_config(r0, 0x0, 0x200)\n")
	if err != nil {
		t.Fatal(err)
	}
	titles := d.Hunt(p, 150)
	if len(titles) == 0 {
		t.Fatal("KCSAN found no race on plainly racing accesses")
	}
	// The detector runs on the shared engine, so the hunt's pair runs
	// are served by the kernel recycler.
	recycled, built := d.KernelCounters()
	if recycled == 0 {
		t.Fatalf("kernel pool never recycled (recycled=%d built=%d)", recycled, built)
	}
	if rate := d.RecycleRate(); rate < 0.5 {
		t.Fatalf("recycle rate = %v, want > 0.5", rate)
	}
}

// TestKCSANSilencedByAnnotation is the paper's Case Study 1 (Bug #9):
// developers annotated the sk->sk_prot race with WRITE_ONCE/READ_ONCE,
// which silences KCSAN — but adds no ordering, so the OOO bug remains
// (OZZ's corpus test finds it; KCSAN reports nothing).
func TestKCSANSilencedByAnnotation(t *testing.T) {
	d := New([]string{"tls"}, modules.Bugs("tls:sk_prot_wmb"), 2)
	target := modules.Target("tls")
	p, err := target.Parse("r0 = tls_socket()\ntls_init(r0)\nsock_setsockopt(r0, 0x1)\n")
	if err != nil {
		t.Fatal(err)
	}
	titles := d.Hunt(p, 150)
	for _, title := range titles {
		if strings.Contains(title, "tls") || strings.Contains(title, "sock_common") {
			t.Fatalf("KCSAN reported the annotated race it should be blind to: %v", titles)
		}
	}
}

// TestKCSANBlindToBitLockBug is the paper's Case Study 2 (Bug #1): the
// incorrect custom lock contains NO data race — every access to cp_flags is
// atomic and the data accesses are lock-protected (mutual exclusion holds
// under in-order execution) — so a race detector has nothing to report,
// while OZZ triggers the bug by actually reordering.
func TestKCSANBlindToBitLockBug(t *testing.T) {
	d := New([]string{"rds"}, modules.Bugs("rds:clear_bit_unlock"), 3)
	target := modules.Target("rds")
	p, err := target.Parse("r0 = rds_socket()\nrds_sendmsg(r0, 0x4)\nrds_sendmsg(r0, 0x3)\nrds_loop_xmit(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	if titles := d.Hunt(p, 150); len(titles) != 0 {
		t.Fatalf("KCSAN reported a race in the race-free bit lock: %v", titles)
	}
}

// TestKCSANDeterministicWithSeed: same seed, same findings (the simulated
// detector is reproducible even though real KCSAN is not — one of the §7
// comparison points in OZZ's favour is determinism).
func TestKCSANDeterministicWithSeed(t *testing.T) {
	run := func() int {
		d := New([]string{"gsm"}, modules.Bugs("gsm:dlci_config_rmb"), 7)
		target := modules.Target("gsm")
		p, _ := target.Parse("r0 = gsm_open()\ngsm_activate(r0, 0x0)\ngsm_dlci_config(r0, 0x0, 0x200)\n")
		return len(d.Hunt(p, 60))
	}
	if run() != run() {
		t.Fatal("same seed produced different findings")
	}
}
