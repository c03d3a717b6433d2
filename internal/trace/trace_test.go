package trace

import (
	"strings"
	"testing"
)

func TestBarrierKindProperties(t *testing.T) {
	cases := []struct {
		kind BarrierKind
		name string
	}{
		{BarrierFull, "smp_mb"},
		{BarrierStore, "smp_wmb"},
		{BarrierLoad, "smp_rmb"},
		{BarrierRelease, "smp_store_release"},
		{BarrierAcquire, "smp_load_acquire"},
	}
	for _, c := range cases {
		if c.kind.String() != c.name {
			t.Errorf("String() = %q, want %q", c.kind.String(), c.name)
		}
	}
}

func TestAccessKindAndAtomicityStrings(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind strings broken")
	}
	for a, want := range map[Atomicity]string{
		Plain: "plain", Once: "once", Atomic: "atomic",
		AtomicAcquire: "acquire", AtomicRelease: "release",
	} {
		if a.String() != want {
			t.Errorf("%v.String() = %q", a, a.String())
		}
	}
}

func TestBufferRoundTrip(t *testing.T) {
	b := Buffer{Events: make([]Event, 0, 8)} // room to append in place
	b.RecordAccess(AccessEvent{Instr: 1, Addr: 0x10, Kind: Store, Time: 5})
	head := b.Since(0)
	b.RecordBarrier(BarrierEvent{Instr: 2, Kind: BarrierStore, Time: 6})
	b.RecordAccess(AccessEvent{Instr: 3, Addr: 0x18, Kind: Load, Time: 7})
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if e := b.Events; e[0].Barrier || e[0].Acc.Instr != 1 || !e[1].Barrier || e[1].Bar.Kind != BarrierStore || e[2].Acc.Kind != Load {
		t.Fatalf("Events:\n%s", b.Dump())
	}
	tail := b.Since(1)
	if len(tail) != 2 || cap(tail) != 2 || tail[0].Bar.Kind != BarrierStore {
		t.Fatalf("Since(1) = %v (cap %d)", tail, cap(tail))
	}
	if b.Since(3) != nil {
		t.Fatal("Since(Len()) is not nil")
	}
	// Appending to a view must not overwrite the events recorded after it.
	if len(head) != 1 || cap(head) != 1 {
		t.Fatalf("Since(0) of one event: len %d cap %d", len(head), cap(head))
	}
	_ = append(head, Event{})
	if b.Events[1].Bar.Kind != BarrierStore {
		t.Fatal("append to a view overwrote the buffer")
	}
	b.Reset()
	if b.Len() != 0 || len(tail) != 2 {
		t.Fatalf("Reset/Since interplay broken: %d / %d", b.Len(), len(tail))
	}
}

func TestEventAccessors(t *testing.T) {
	acc := Event{Acc: AccessEvent{Instr: 7, Addr: 0x20, Kind: Store, Time: 11}}
	bar := Event{Barrier: true, Bar: BarrierEvent{Instr: 8, Kind: BarrierLoad, Time: 12}}
	if !strings.Contains(acc.String(), "store") || !strings.Contains(bar.String(), "smp_rmb") {
		t.Errorf("String: %q / %q", acc, bar)
	}
}

func TestBufferDump(t *testing.T) {
	var b Buffer
	b.RecordAccess(AccessEvent{Instr: 1, Addr: 0x10, Kind: Load})
	b.RecordBarrier(BarrierEvent{Instr: 2, Kind: BarrierFull})
	dump := b.Dump()
	if !strings.Contains(dump, "load") || !strings.Contains(dump, "smp_mb") {
		t.Errorf("Dump = %q", dump)
	}
}
