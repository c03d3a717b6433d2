package dist

import (
	"encoding/json"
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
