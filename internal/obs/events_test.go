package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// decodeEvents parses a JSONL buffer back into events.
func decodeEvents(t *testing.T, s string) []Event {
	t.Helper()
	var out []Event
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestEventOrdering pins both ordering guarantees: Seq is globally
// gap-free 1..N, and WSeq is gap-free 1..k per worker, even with
// interleaved emitters.
func TestEventOrdering(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(&sb, LevelDebug)
	l.now = func() time.Time { return time.Unix(0, 42) }
	order := []int{1, 2, 1, 0, 2, 2, 1, 0}
	for i, w := range order {
		l.Info(w, "step", map[string]any{"i": i})
	}
	evs := decodeEvents(t, sb.String())
	if len(evs) != len(order) {
		t.Fatalf("got %d events, want %d", len(evs), len(order))
	}
	wseq := map[int]uint64{}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Worker != order[i] {
			t.Errorf("event %d: Worker = %d, want %d", i, ev.Worker, order[i])
		}
		wseq[ev.Worker]++
		if ev.WSeq != wseq[ev.Worker] {
			t.Errorf("event %d: WSeq = %d, want %d", i, ev.WSeq, wseq[ev.Worker])
		}
		if ev.TimeNS != 42 {
			t.Errorf("event %d: TimeNS = %d, want stubbed 42", i, ev.TimeNS)
		}
		if ev.Level != "info" || ev.Kind != "step" {
			t.Errorf("event %d: level/kind = %s/%s", i, ev.Level, ev.Kind)
		}
	}
}

// TestEventLevelFilter checks that below-min events are dropped before
// sequence assignment, keeping the emitted stream gap-free.
func TestEventLevelFilter(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(&sb, LevelWarn)
	l.Emit(0, LevelDebug, "d", nil)
	l.Info(0, "i", nil)
	l.Warn(1, "w", nil)
	l.Emit(1, LevelError, "e", nil)
	evs := decodeEvents(t, sb.String())
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (debug+info dropped)", len(evs))
	}
	if evs[0].Kind != "w" || evs[0].Seq != 1 || evs[0].WSeq != 1 {
		t.Errorf("first emitted event = %+v, want warn with Seq=WSeq=1", evs[0])
	}
	if evs[1].Kind != "e" || evs[1].Seq != 2 || evs[1].WSeq != 2 {
		t.Errorf("second emitted event = %+v, want error with Seq=WSeq=2", evs[1])
	}
}

func TestEventNilSafety(t *testing.T) {
	var l *EventLog
	l.Info(0, "ignored", nil) // must not panic
	l.Emit(0, LevelDebug, "ignored", nil)
	l.Warn(0, "ignored", nil)
	l.Emit(0, LevelError, "ignored", nil)
	if err := l.Err(); err != nil {
		t.Errorf("nil log Err = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil log Close = %v", err)
	}
}

func TestEventMarshalErrorDegrades(t *testing.T) {
	var sb strings.Builder
	l := NewEventLog(&sb, LevelInfo)
	l.Info(0, "bad", map[string]any{"ch": make(chan int)})
	evs := decodeEvents(t, sb.String())
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1 degraded event", len(evs))
	}
	if _, ok := evs[0].Fields["marshal_error"]; !ok {
		t.Errorf("degraded event fields = %v, want marshal_error key", evs[0].Fields)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestEventWriteErrorLatches(t *testing.T) {
	w := &failWriter{}
	l := NewEventLog(w, LevelInfo)
	l.Info(0, "a", nil)
	l.Info(0, "b", nil)
	l.Info(0, "c", nil)
	if l.Err() == nil {
		t.Fatal("Err = nil after failed write")
	}
	if w.n != 1 {
		t.Errorf("writer called %d times, want 1 (log latches after first error)", w.n)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelDebug: "debug", LevelInfo: "info", LevelWarn: "warn", LevelError: "error",
	} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
	if got := Level(9).String(); got != "level(9)" {
		t.Errorf("unknown level String = %q", got)
	}
}
