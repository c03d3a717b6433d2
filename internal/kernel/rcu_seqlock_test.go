package kernel

import (
	"strings"
	"testing"

	"ozz/internal/sched"
)

// TestRCUReadSideNesting: nesting balances; unbalanced unlock crashes.
func TestRCUReadSideNesting(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		r := k.RCU()
		r.ReadLock(t2)
		r.ReadLock(t2)
		if !r.InReader(t2) {
			t2.Crashf("test", "not in reader")
		}
		r.ReadUnlock(t2)
		r.ReadUnlock(t2)
		if r.InReader(t2) {
			t2.Crashf("test", "still in reader")
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
	crash = runTask(k, func(t2 *Task) {
		k.RCU().ReadUnlock(t2)
	})
	if crash == nil || !strings.Contains(crash.Title, "rcu_read_unlock without") {
		t.Fatalf("unbalanced unlock: %v", crash)
	}
}

// TestRCUSynchronizeWaitsForReader: an updater's synchronize_rcu does not
// return while another task is mid-read-side-section.
func TestRCUSynchronizeWaitsForReader(t *testing.T) {
	k := New()
	r := k.RCU()
	reader, updater := k.NewTask(0), k.NewTask(1)
	var order []string
	s := sched.NewSession(sched.Sequential{})
	s.Spawn(0, 0, func(st *sched.Task) {
		reader.Bind(st)
		r.ReadLock(reader)
		order = append(order, "lock")
		st.Yield(1) // let the updater run into Synchronize
		st.Yield(2)
		order = append(order, "unlock")
		r.ReadUnlock(reader)
	})
	s.Spawn(1, 1, func(st *sched.Task) {
		updater.Bind(st)
		r.Synchronize(updater)
		order = append(order, "grace-period-done")
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if order[len(order)-1] != "grace-period-done" {
		t.Fatalf("synchronize returned before the reader exited: %v", order)
	}
}

// TestRCUSynchronizeInsideReaderCrashes: lockdep-RCU semantics.
func TestRCUSynchronizeInsideReaderCrashes(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		r := k.RCU()
		r.ReadLock(t2)
		r.Synchronize(t2)
	})
	if crash == nil || !strings.Contains(crash.Title, "synchronize_rcu inside") {
		t.Fatalf("crash = %v", crash)
	}
}

// TestSeqlockWriterReaderRoundTrip: a sequential write/read cycle yields a
// consistent snapshot and even sequence numbers.
func TestSeqlockWriterReaderRoundTrip(t *testing.T) {
	k := New()
	crash := runTask(k, func(t2 *Task) {
		clk := t2.Kzalloc(3)
		seq := Field(clk, 0)
		t2.WriteSeqBegin(1, seq)
		t2.Store(2, Field(clk, 1), 7)
		t2.Store(3, Field(clk, 2), 14)
		t2.WriteSeqEnd(4, seq)
		s := t2.ReadSeqBegin(5, seq)
		if s%2 != 0 || s != 2 {
			t2.Crashf("test", "seq = %d", s)
		}
		a := t2.Load(6, Field(clk, 1))
		b := t2.Load(7, Field(clk, 2))
		if t2.ReadSeqRetry(8, seq, s, true) {
			t2.Crashf("test", "spurious retry")
		}
		if a != 7 || b != 14 {
			t2.Crashf("test", "snapshot %d/%d", a, b)
		}
	})
	if crash != nil {
		t.Fatalf("crash: %v", crash)
	}
}

// TestSeqlockRetryDetectsConcurrentWrite: a reader that raced an in-flight
// write sees a retry with the correct barrier.
func TestSeqlockRetryDetectsConcurrentWrite(t *testing.T) {
	k := New()
	clk := k.Mem.AllocZeroed(3)
	seq := Field(clk, 0)
	reader, writer := k.NewTask(0), k.NewTask(1)
	bp := &sched.Breakpoint{FromTask: 0, Instr: 6, Pos: sched.PosAfter, ToTask: 1}
	s := sched.NewSession(bp)
	retried := false
	s.Spawn(0, 0, func(st *sched.Task) {
		reader.Bind(st)
		start := reader.ReadSeqBegin(5, seq)
		reader.Load(6, Field(clk, 1)) // breakpoint: writer runs here
		reader.Load(7, Field(clk, 2))
		retried = reader.ReadSeqRetry(8, seq, start, true)
	})
	s.Spawn(1, 1, func(st *sched.Task) {
		writer.Bind(st)
		writer.WriteSeqBegin(1, seq)
		writer.Store(2, Field(clk, 1), 1)
		writer.Store(3, Field(clk, 2), 2)
		writer.WriteSeqEnd(4, seq)
	})
	if aborted := s.Run(); aborted != nil {
		t.Fatalf("aborted: %v", aborted)
	}
	if !retried {
		t.Fatal("reader did not detect the concurrent write")
	}
}
