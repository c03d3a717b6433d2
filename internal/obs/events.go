package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level classifies events by severity for filtering.
type Level int

// The levels, in increasing severity. LevelInfo is the default log floor.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used in the JSONL envelope.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Event is one JSONL record in a campaign event log. Ordering guarantees:
// Seq is a strictly increasing global sequence across the whole log, and
// WSeq is strictly increasing per Worker — so a reader can reconstruct
// both the global emission order and every worker's private timeline.
type Event struct {
	// Seq is the global emission index (1-based, gap-free).
	Seq uint64 `json:"seq"`
	// Worker identifies the emitting worker (0 = campaign
	// coordinator / single-threaded driver, 1..N = pool workers).
	Worker int `json:"worker"`
	// WSeq is the per-worker emission index (1-based, gap-free per worker).
	WSeq uint64 `json:"wseq"`
	// TimeNS is the wall-clock emission time in Unix nanoseconds.
	// Wall-clock, so non-deterministic across runs.
	TimeNS int64 `json:"t_ns"`
	// Level is the severity name ("debug"/"info"/"warn"/"error").
	Level string `json:"level"`
	// Kind names the event type (e.g. "step", "campaign_start", "crash").
	Kind string `json:"kind"`
	// Fields carries the event-specific payload, or null when empty.
	Fields map[string]any `json:"fields,omitempty"`
}

// EventLog writes structured campaign events as one JSON object per line
// (JSONL). All methods are safe for concurrent use and are no-ops on a
// nil receiver, so instrumented code never needs a nil check.
type EventLog struct {
	mu   sync.Mutex
	w    io.Writer
	min  Level
	seq  uint64
	wseq map[int]uint64
	err  error
	// now is stubbed in tests; defaults to time.Now.
	now func() time.Time
}

// NewEventLog returns an event log writing JSONL to w, dropping events
// below min. The log serializes writes internally; w need not be
// concurrency-safe.
func NewEventLog(w io.Writer, min Level) *EventLog {
	return &EventLog{w: w, min: min, wseq: make(map[int]uint64), now: time.Now}
}

// Emit writes one event for worker at the given level. fields is marshaled
// as-is (values must be JSON-encodable); a nil map is omitted. Events
// below the log's minimum level are dropped before sequence numbers are
// assigned, so Seq/WSeq stay gap-free over the emitted stream.
func (l *EventLog) Emit(worker int, level Level, kind string, fields map[string]any) {
	if l == nil || level < l.min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.seq++
	l.wseq[worker]++
	ev := Event{
		Seq:    l.seq,
		Worker: worker,
		WSeq:   l.wseq[worker],
		TimeNS: l.now().UnixNano(),
		Level:  level.String(),
		Kind:   kind,
		Fields: fields,
	}
	b, err := json.Marshal(&ev)
	if err != nil {
		// Unencodable fields: degrade to an error event rather than
		// losing the slot silently.
		ev.Fields = map[string]any{"marshal_error": err.Error()}
		b, _ = json.Marshal(&ev)
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil {
		l.err = err
	}
}

// Info emits a LevelInfo event (nil-safe).
func (l *EventLog) Info(worker int, kind string, fields map[string]any) {
	l.Emit(worker, LevelInfo, kind, fields)
}

// Warn emits a LevelWarn event (nil-safe).
func (l *EventLog) Warn(worker int, kind string, fields map[string]any) {
	l.Emit(worker, LevelWarn, kind, fields)
}

// Err returns the first write error encountered, if any. After a write
// error the log drops all further events.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes and closes the underlying writer when it implements the
// corresponding interfaces. Nil-safe.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	type flusher interface{ Flush() error }
	if f, ok := l.w.(flusher); ok {
		if err := f.Flush(); err != nil && l.err == nil {
			l.err = err
		}
	}
	if c, ok := l.w.(io.Closer); ok {
		if err := c.Close(); err != nil && l.err == nil {
			l.err = err
		}
	}
	return l.err
}
