package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a size at which every workload still reaches each layer: a hunt
// long enough to find bugs, one clean op, and one repair round.
var tiny = sizes{
	Hunts: 1, HuntCap: 256,
	Campaigns: 1, CleanSteps: cleanOp,
	Rounds:    1,
	SetupReps: 3,
	MicroTime: 10 * time.Millisecond,
}

// TestSmoke runs every workload at the tiny size, untraced and traced, and
// checks that each run passes its correctness checks (the traced run's
// include identical counts across its two passes) and reports exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := execute(options{
				workload: w, seed: 7, trace: traced,
				traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
				sizes:    tiny,
			}, io.Discard)
			for _, f := range res.failures {
				t.Errorf("%s traced=%v: %s", w, traced, f)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced && res.attempted < 1 {
				t.Errorf("%s: attempted %d ops", w, res.attempted)
			}
		}
	}
}

// TestUsage checks that bad arguments exit with 2 and print no result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "hunt", "--trace", "2"},
		{"--workload", "hunt", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
