package dist

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ozz/internal/report"
)

// protoMessages returns one zero instance of every wire message; the
// fuzzer decodes arbitrary bytes into each shape.
func protoMessages() []any {
	return []any{
		&RegisterRequest{}, &RegisterResponse{},
		&PollRequest{}, &PollResponse{},
		&HeartbeatRequest{}, &HeartbeatResponse{},
		&ErrorResponse{},
	}
}

// FuzzProtocol feeds arbitrary bytes to every protocol message decoder —
// exactly what a manager does with an untrusted request body. Invariants:
// decoding never panics, and any body that decodes reaches a canonical
// wire form in one encode step (marshal∘decode is idempotent), so a
// manager relaying a message never corrupts it. The comparison is on the
// marshaled bytes, not DeepEqual: omitempty canonicalizes an empty slice
// and an absent field to the same wire form, which is the equality that
// matters on the wire.
func FuzzProtocol(f *testing.F) {
	for _, m := range []any{
		RegisterRequest{V: ProtocolVersion, Name: "w1"},
		RegisterRequest{V: ProtocolVersion, Name: "w2", Token: "t0k", PrevWorkerID: 3, PrevEpoch: 2},
		RegisterResponse{V: ProtocolVersion, WorkerID: 2, Epoch: 3, HeartbeatMS: 500},
		PollRequest{V: ProtocolVersion, WorkerID: 2, Token: "t0k", Epoch: 3},
		PollResponse{V: ProtocolVersion, Lease: &Lease{ID: 1<<32 | 1, Shard: 0, Seed: 9, Steps: 10, TTLMS: 3000}},
		RegisterResponse{V: ProtocolVersion, WorkerID: 1, HeartbeatMS: 500,
			Campaign: CampaignSpec{Modules: []string{"wq"}, Bugs: []string{"wq_missing_barrier"}, UseSeeds: true}},
		PollRequest{V: ProtocolVersion, WorkerID: 1, Completed: 1<<32 | 2},
		PollResponse{V: ProtocolVersion, Lease: &Lease{ID: 7, Shard: 3, Seed: -1, Steps: 40, TTLMS: 3000}},
		PollResponse{V: ProtocolVersion, Done: true},
		PollRequest{V: ProtocolVersion, WorkerID: 1, Completed: 1<<32 | 3,
			Programs: "r0 = wq_create()\n\nr0 = wq_create()\nwq_pipe_read(r0)\n",
			Reports: []*report.Report{{
				Title: "KCSAN: data-race in wq_post", Oracle: "kcsan", OOO: true, Type: "S-S",
				ReorderedSites: []string{"42"}, Pair: [2]string{"wq_post_notification", "wq_pipe_read"},
			}}},
		PollRequest{V: ProtocolVersion, WorkerID: 1, Programs: "r0 = wq_create()\n", Deregister: true},
		PollResponse{V: ProtocolVersion, RetryMS: 250},
		HeartbeatRequest{V: ProtocolVersion, WorkerID: 2, Token: "t0k", Epoch: 3, Lease: 1<<32 | 1},
		HeartbeatRequest{V: ProtocolVersion, WorkerID: 1, Lease: 7},
		HeartbeatResponse{V: ProtocolVersion, OK: true},
		ErrorResponse{Error: "protocol version mismatch"},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"v":9999,"lease":{"id":18446744073709551615}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, zero := range protoMessages() {
			msg := reflect.New(reflect.TypeOf(zero).Elem()).Interface()
			if json.Unmarshal(body, msg) != nil {
				continue
			}
			out, err := json.Marshal(msg)
			if err != nil {
				t.Fatalf("%T decoded %q but re-marshal failed: %v", msg, body, err)
			}
			again := reflect.New(reflect.TypeOf(zero).Elem()).Interface()
			if err := json.Unmarshal(out, again); err != nil {
				t.Fatalf("%T re-marshal %q does not decode: %v", msg, out, err)
			}
			out2, err := json.Marshal(again)
			if err != nil {
				t.Fatalf("%T second marshal failed: %v", msg, err)
			}
			if string(out) != string(out2) {
				t.Fatalf("%T wire form not canonical after one encode:\nbody: %q\nfirst: %s\nsecond: %s",
					msg, body, out, out2)
			}
		}
	})
}

// FuzzWALReplay writes arbitrary bytes as a campaign's log and replays
// it, as a restarted manager does with crash residue. Invariants: replay
// never panics; it applies exactly the newline-terminated lines before
// the first one that fails to decode or fails its CRC, each with its own
// type and payload; it truncates the file to exactly those lines; and a
// second replay applies the same records and finds no torn tail. The
// same bytes are decoded as a snapshot file, which must not panic
// either.
func FuzzWALReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.log")
	w, err := openWAL(path, newDistObs(nil, nil))
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []struct {
		t string
		d any
	}{
		{walEpoch, walEpochD{Epoch: 2}},
		{walWorker, walWorkerD{ID: 1, Name: "w1"}},
		{walProgram, walProgramD{Src: "r0 = wq_create()\nwq_pipe_read(r0)\n"}},
		{walReport, report.Report{Title: "KCSAN: data-race in wq_post", OOO: true}},
		{walComplete, walCompleteD{Shard: 3}},
	} {
		if err := w.append(r.t, r.d); err != nil {
			f.Fatal(err)
		}
	}
	w.close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-1])                                          // the last record lacks its newline
	f.Add(seed[:len(seed)/2])                                          // cut mid-record
	f.Add(bytes.Replace(seed, []byte(`"crc":`), []byte(`"crc":1`), 1)) // the first CRC altered
	f.Add([]byte("\n{}\n"))
	snap, err := json.Marshal(CampaignSnapshot{Format: SnapshotFormat, Name: defaultCampaign, Epoch: 2,
		TotalSteps: 40, ShardSteps: 10, Seed: 1, Completed: []int{0, 2},
		Workers: []SnapshotWorker{{ID: 1, Name: "w1"}}, Corpus: "r0 = wq_create()\n",
		Reports: []*report.Report{{Title: "KCSAN: data-race in wq_post", OOO: true}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The intact prefix: whole lines, each a record whose CRC checks.
		var want []walRecord
		intact := 0
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			var rec walRecord
			if json.Unmarshal(rest[:i+1], &rec) != nil || rec.CRC != crc32.ChecksumIEEE(rec.D) {
				break
			}
			want = append(want, rec)
			intact += i + 1
			rest = rest[i+1:]
		}
		for pass := 0; pass < 2; pass++ {
			var got []walRecord
			n, torn, err := replayWAL(path, func(typ string, d json.RawMessage) {
				got = append(got, walRecord{T: typ, CRC: crc32.ChecksumIEEE(d), D: d})
			})
			if err != nil {
				t.Fatalf("pass %d: replay: %v", pass, err)
			}
			wantTorn := int64(len(data) - intact)
			if pass == 1 {
				wantTorn = 0
			}
			if torn != wantTorn {
				t.Fatalf("pass %d: torn = %d, want %d", pass, torn, wantTorn)
			}
			if n != len(want) || !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: applied %d records %+v, want the %d intact ones %+v", pass, n, got, len(want), want)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, data[:intact]) {
				t.Fatalf("pass %d: file left as %q, want the intact prefix %q", pass, after, data[:intact])
			}
		}
		snapPath := filepath.Join(dir, "snapshot.json")
		if err := os.WriteFile(snapPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := readSnapshotFile(snapPath); err == nil && (snap == nil || snap.Format != SnapshotFormat) {
			t.Fatalf("readSnapshotFile accepted %q as %+v", data, snap)
		}
	})
}
