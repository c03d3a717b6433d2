package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden runs the CLI and compares its -json output against a committed
// golden (refresh with OZZ_UPDATE_GOLDEN=1).
func golden(t *testing.T, name string, args ...string) reportDoc {
	t.Helper()
	var buf bytes.Buffer
	if code := run(args, &buf); code != 0 {
		t.Fatalf("ozz-repair exited %d:\n%s", code, buf.String())
	}
	path := filepath.Join("testdata", name)
	if os.Getenv("OZZ_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with OZZ_UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSON report drifted from golden (OZZ_UPDATE_GOLDEN=1 to refresh)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
	var doc reportDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return doc
}

// TestFig1Golden pins the acceptance path: the Fig. 1 S-S reproducer must
// yield a validated smp_wmb insertion between the two profiled stores,
// fixing lkmm and armv8 and unnecessary under tso.
func TestFig1Golden(t *testing.T) {
	doc := golden(t, "repair.pipe_wmb.golden.json", "-bug", "watchqueue:pipe_wmb", "-json")
	if !doc.Reproduced || !doc.OK || doc.Repair == nil {
		t.Fatalf("unexpected doc: %+v", doc)
	}
	top := doc.Repair.Suggestions[0]
	f := top.Fences[0]
	if f.Action != "insert" || f.Barrier != "smp_wmb" ||
		f.After != "post_one_notification:buf->ops=&ops" ||
		f.Before != "post_one_notification:head+=1" {
		t.Fatalf("top fence = %+v, want the Fig. 1 smp_wmb insertion", f)
	}
	verdicts := map[string]string{}
	for _, m := range top.Models {
		verdicts[m.Model] = m.Status
	}
	if verdicts["lkmm"] != "fixes" || verdicts["armv8"] != "fixes" || verdicts["tso"] != "unnecessary" {
		t.Fatalf("verdicts = %v", verdicts)
	}
}

// TestLoadBarrierGolden pins the litmus-mode load-barrier repair: the
// "MP+wmb only" shape must be fixed by a reader-side smp_rmb insertion.
func TestLoadBarrierGolden(t *testing.T) {
	doc := golden(t, "repair.mp_wmb_only.golden.json", "-litmus", "MP+wmb only", "-json")
	if !doc.OK || doc.Repair == nil {
		t.Fatalf("unexpected doc: %+v", doc)
	}
	f := doc.Repair.Suggestions[0].Fences[0]
	if f.Action != "insert" || f.Barrier != "smp_rmb" {
		t.Fatalf("top fence = %+v, want an smp_rmb insertion", f)
	}
}

// TestTextMode checks the human-readable rendering of both modes.
func TestTextMode(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-bug", "watchqueue:pipe_wmb"}, &buf); code != 0 {
		t.Fatalf("ozz-repair exited %d:\n%s", code, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"diagnosis:", "suggested fix:", "suggested fixes:",
		"insert smp_wmb between post_one_notification:buf->ops=&ops and post_one_notification:head+=1",
		"candidates:", "buggy outcomes:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageErrors pins the exit codes: 2 for usage problems, 1 when no
// repair comes out.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		// out, when set, must appear in the output.
		out string
	}{
		{args: []string{}},
		{args: []string{"-bug", "x", "-litmus", "y"}},
		{args: []string{"-bug", "no:such_bug"}},
		{args: []string{"-litmus", "no such shape"}},
		{args: []string{"-model", "power", "-bug", "watchqueue:pipe_wmb"}},
		{args: []string{"-no-such-flag"}},
		// -bug runs the campaign's repair search, which takes no
		// -max-fences, even at its default value.
		{args: []string{"-bug", "watchqueue:pipe_wmb", "-max-fences", "1"}, out: "-max-fences applies to -litmus only"},
		{args: []string{"-bug", "watchqueue:pipe_wmb", "-max-fences", "2"}, out: "-max-fences applies to -litmus only"},
		// The search is sequential and -closure-seeds is gone.
		{args: []string{"-bug", "watchqueue:pipe_wmb", "-workers", "2"}, out: "flag provided but not defined"},
		{args: []string{"-closure-seeds", "3", "-bug", "watchqueue:pipe_wmb"}, out: "flag provided but not defined"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if code := run(c.args, &buf); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", c.args, code)
		}
		if !strings.Contains(buf.String(), c.out) {
			t.Errorf("run(%v) output lacks %q:\n%s", c.args, c.out, buf.String())
		}
	}
	// An already-correct litmus shape has nothing to repair: exit 1.
	var buf bytes.Buffer
	if code := run([]string{"-litmus", "MP+wmb+rmb"}, &buf); code != 1 {
		t.Errorf("correct shape exited %d, want 1:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "nothing to repair") {
		t.Errorf("missing nothing-to-repair notice:\n%s", buf.String())
	}
}

// TestListMode covers -list.
func TestListMode(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-list"}, &buf); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"watchqueue:pipe_wmb", "MP+wmb only"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-list output lacks %q", want)
		}
	}
}
