package dist

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// testCampaign is the campaign every fabric test runs: the buggy
// watchqueue module with seeds on, which reliably produces findings
// within a few dozen steps.
func testCampaign() CampaignSpec {
	return CampaignSpec{
		Modules:  []string{"watchqueue"},
		Bugs:     []string{"watchqueue:pipe_wmb"},
		UseSeeds: true,
	}
}

// fastManagerConfig builds a manager configuration with test-friendly
// liveness timings.
func fastManagerConfig(totalSteps, shardSteps int) ManagerConfig {
	return ManagerConfig{
		Campaign:       testCampaign(),
		TotalSteps:     totalSteps,
		ShardSteps:     shardSteps,
		Seed:           1,
		LeaseTTL:       500 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
	}
}

func TestShardsPlan(t *testing.T) {
	plan := Shards(7, 100, 30)
	if len(plan) != 4 {
		t.Fatalf("got %d shards, want 4", len(plan))
	}
	total := 0
	seeds := make(map[int64]struct{})
	for i, sh := range plan {
		if sh.Index != i {
			t.Errorf("shard %d has index %d", i, sh.Index)
		}
		total += sh.Steps
		seeds[sh.Seed] = struct{}{}
	}
	if total != 100 {
		t.Errorf("plan covers %d steps, want 100", total)
	}
	if plan[3].Steps != 10 {
		t.Errorf("last shard has %d steps, want the 10-step remainder", plan[3].Steps)
	}
	if len(seeds) != 4 {
		t.Errorf("plan has %d distinct seeds, want 4", len(seeds))
	}
	// The plan is a pure function of its arguments.
	again := Shards(7, 100, 30)
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("shard plan is not deterministic at %d: %+v vs %+v", i, plan[i], again[i])
		}
	}
	if Shards(7, 0, 30) != nil {
		t.Error("empty campaign should have an empty plan")
	}
}

// startManager serves a manager over an httptest listener.
func startManager(t *testing.T, cfg ManagerConfig) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return m, srv
}

// testWorker builds a worker pointed at srv with fast retry timings.
func testWorker(srv *httptest.Server, name string) *Worker {
	return NewWorker(WorkerConfig{
		ManagerURL:  srv.URL,
		Name:        name,
		PoolWorkers: 2,
		HTTPClient:  srv.Client(),
		MaxBackoff:  200 * time.Millisecond,
	})
}

// sortedCopy returns a sorted copy of hashes for set comparison.
func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// TestDistributedMatchesStandalone is the subsystem's core promise: a
// 1-manager/2-worker campaign finds exactly the deduplicated report
// titles (and corpus programs) of the equivalent standalone shard run.
func TestDistributedMatchesStandalone(t *testing.T) {
	cfg := fastManagerConfig(60, 15)
	wantReports, wantCorpus := RunShardsLocal(cfg, 2)
	if wantReports.Len() == 0 {
		t.Fatal("standalone campaign found nothing; test campaign is too weak")
	}

	m, srv := startManager(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errc := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		go func(name string) { errc <- testWorker(srv, name).Run(ctx) }(name)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !m.Done() {
		t.Fatal("workers exited but the manager is not done")
	}

	gotTitles := m.ReportTitles()
	wantTitles := wantReports.Titles()
	if strings.Join(gotTitles, "|") != strings.Join(wantTitles, "|") {
		t.Errorf("distributed titles %v != standalone titles %v", gotTitles, wantTitles)
	}

	wantHashes := make([]string, 0, len(wantCorpus))
	for _, p := range wantCorpus {
		wantHashes = append(wantHashes, progHash(p))
	}
	got, want := sortedCopy(m.CorpusKeyHashes()), sortedCopy(wantHashes)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("distributed corpus (%d programs) != standalone corpus (%d programs)",
			len(got), len(want))
	}
	if m.do.workers.Value() != 0 {
		t.Errorf("workers_connected = %v after both deregistered, want 0", m.do.workers.Value())
	}
}

// TestWorkerKillLeaseReassignment: a worker that dies holding a lease
// loses nothing — the manager reassigns the shard after the heartbeat
// deadline and the surviving worker completes the campaign with the full
// standalone result.
func TestWorkerKillLeaseReassignment(t *testing.T) {
	cfg := fastManagerConfig(40, 10)
	wantReports, wantCorpus := RunShardsLocal(cfg, 2)

	m, srv := startManager(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The victim grabs one lease and vanishes: no completion, no sync, no
	// deregister, and (because Run returned) no more heartbeats.
	victim := testWorker(srv, "victim")
	victim.dieAfterLeases = 1
	if err := victim.Run(ctx); err == nil {
		t.Fatal("victim should have died by test hook")
	}

	survivor := testWorker(srv, "survivor")
	if err := survivor.Run(ctx); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if !m.Done() {
		t.Fatal("survivor exited but the campaign is not done")
	}
	if got := m.do.leaseReassigns.Value(); got < 1 {
		t.Errorf("lease_reassignments_total = %d, want >= 1", got)
	}
	if got := m.do.heartbeatMisses.Value(); got < 1 {
		t.Errorf("heartbeat_misses_total = %d, want >= 1", got)
	}

	gotTitles := strings.Join(m.ReportTitles(), "|")
	if gotTitles != strings.Join(wantReports.Titles(), "|") {
		t.Errorf("post-kill titles %q != standalone %q", gotTitles, wantReports.Titles())
	}
	if m.CorpusLen() != len(wantCorpus) {
		t.Errorf("post-kill corpus has %d programs, standalone has %d", m.CorpusLen(), len(wantCorpus))
	}
}

// TestSyncDeltaConvergence drives the Want handshake by hand: the manager
// learns what a worker holds, asks for it, receives the bodies, and then
// serves them to a second worker that advertises nothing.
func TestSyncDeltaConvergence(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	m, srv := startManager(t, cfg)
	client := srv.Client()

	var reg RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "a"}, &reg); err != nil {
		t.Fatal(err)
	}

	target := modules.Target("watchqueue")
	prog, err := target.Parse("r0 = wq_create()\nwq_pipe_read(r0)\n")
	if err != nil {
		t.Fatal(err)
	}
	h := progHash(prog)

	// Round 1: advertise the key; the manager lacks it and must ask.
	var s1 SyncResponse
	if err := postJSON(client, srv.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Keys: []string{h},
	}, &s1); err != nil {
		t.Fatal(err)
	}
	if len(s1.Want) != 1 || s1.Want[0] != h {
		t.Fatalf("manager Want = %v, want [%s]", s1.Want, h)
	}
	if m.CorpusLen() != 0 {
		t.Fatal("manager grew a corpus from key hashes alone")
	}

	// Round 2: ship the body; the delta converges.
	var payload strings.Builder
	if err := core.EncodePrograms(&payload, []*syzlang.Program{prog}); err != nil {
		t.Fatal(err)
	}
	var s2 SyncResponse
	if err := postJSON(client, srv.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Keys: []string{h}, Programs: payload.String(),
	}, &s2); err != nil {
		t.Fatal(err)
	}
	if len(s2.Want) != 0 {
		t.Fatalf("manager still wants %v after the body arrived", s2.Want)
	}
	if m.CorpusLen() != 1 {
		t.Fatalf("manager corpus has %d programs, want 1", m.CorpusLen())
	}

	// A second worker advertising nothing receives exactly the delta.
	var regB RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "b"}, &regB); err != nil {
		t.Fatal(err)
	}
	var s3 SyncResponse
	if err := postJSON(client, srv.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: regB.WorkerID, Epoch: regB.Epoch,
	}, &s3); err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodePrograms(strings.NewReader(s3.Programs), target)
	if err != nil || len(got) != 1 || got[0].Key() != prog.Key() {
		t.Fatalf("second worker received %d programs (err %v), want the 1 synced program", len(got), err)
	}
}

// TestProtocolVersionMismatch: a wrong-version client is rejected with
// HTTP 400 and a JSON error body on every endpoint.
func TestProtocolVersionMismatch(t *testing.T) {
	_, srv := startManager(t, fastManagerConfig(10, 10))
	for _, path := range []string{PathRegister, PathPoll, PathSync, PathReport, PathHeartbeat} {
		err := postJSON(srv.Client(), srv.URL+path, RegisterRequest{V: ProtocolVersion + 1}, nil)
		if err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Errorf("%s with bad version: err = %v, want protocol rejection", path, err)
		}
		if err != nil && !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("%s rejection status: %v, want HTTP 400", path, err)
		}
	}
}

// TestCampaignSpecRetiredFields: a register response or snapshot that
// still carries the retired spec fields (prog_len, max_hints_per_pair,
// max_pairs, hint_order) decodes, and the fields are ignored. That is why
// dropping them kept ProtocolVersion 3 and SnapshotFormat 1.
func TestCampaignSpecRetiredFields(t *testing.T) {
	const spec = `{"modules":["watchqueue"],"bugs":["watchqueue:pipe_wmb"],"prog_len":3,` +
		`"max_hints_per_pair":1,"max_pairs":2,"use_seeds":true,"hint_order":"random","model":"armv8"}`
	want := CampaignSpec{Modules: []string{"watchqueue"}, Bugs: []string{"watchqueue:pipe_wmb"}, UseSeeds: true, Model: "armv8"}
	var reg RegisterResponse
	if err := json.Unmarshal([]byte(`{"v":3,"worker_id":1,"campaign":`+spec+`}`), &reg); err != nil {
		t.Fatalf("register response: %v", err)
	}
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(path, []byte(`{"format":1,"name":"default","epoch":1,"spec":`+spec+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshotFile(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, got := range []CampaignSpec{reg.Campaign, snap.Spec} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded spec = %+v, want %+v", got, want)
		}
	}
}

// TestManagerUnknownWorker: traffic from an unregistered worker ID is
// turned away with HTTP 410 so the client knows to re-register.
func TestManagerUnknownWorker(t *testing.T) {
	_, srv := startManager(t, fastManagerConfig(10, 10))
	err := postJSON(srv.Client(), srv.URL+PathPoll, PollRequest{V: ProtocolVersion, WorkerID: 42, Epoch: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "HTTP 410") {
		t.Errorf("unknown worker poll: err = %v, want HTTP 410", err)
	}
}

// TestManagerToken: with a token configured, every endpoint rejects a
// request that lacks it or carries a wrong one with HTTP 403 and accepts
// the right one, and a worker holding a wrong token gives up on the first
// rejection instead of retrying.
func TestManagerToken(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	cfg.Token = "s3cret"
	cfg.HeartbeatEvery = time.Hour // keep the hand-registered worker alive
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var registers atomic.Int32
	h := m.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathRegister {
			registers.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	client := srv.Client()

	var reg RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Name: "w", Token: "s3cret",
	}, &reg); err != nil {
		t.Fatalf("register with the right token: %v", err)
	}
	requests := func(token string) map[string]any {
		return map[string]any{
			PathRegister:  RegisterRequest{V: ProtocolVersion, Name: "w", Token: token},
			PathPoll:      PollRequest{V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Token: token},
			PathSync:      SyncRequest{V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Token: token},
			PathReport:    ReportRequest{V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Token: token},
			PathHeartbeat: HeartbeatRequest{V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch, Token: token},
		}
	}
	for _, token := range []string{"", "wrong"} {
		for path, req := range requests(token) {
			if err := postJSON(client, srv.URL+path, req, nil); errStatus(err) != http.StatusForbidden {
				t.Errorf("%s with token %q: %v, want HTTP 403", path, token, err)
			}
		}
	}
	for path, req := range requests("s3cret") {
		if err := postJSON(client, srv.URL+path, req, nil); err != nil {
			t.Errorf("%s with the right token: %v", path, err)
		}
	}

	registers.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w := NewWorker(WorkerConfig{
		ManagerURL: srv.URL, Name: "intruder", Token: "wrong",
		HTTPClient: client, MaxBackoff: 200 * time.Millisecond,
	})
	err = w.Run(ctx)
	if errStatus(err) != http.StatusForbidden || ctx.Err() != nil {
		t.Fatalf("worker with a wrong token: Run = %v (ctx %v), want an HTTP 403 error at once", err, ctx.Err())
	}
	if n := strings.Count(err.Error(), "dist:"); n != 1 {
		t.Errorf("worker with a wrong token: Run = %q carries %d dist: prefixes, want 1", err, n)
	}
	if n := registers.Load(); n != 1 {
		t.Errorf("worker with a wrong token sent %d register requests, want 1", n)
	}
}

// TestWorkerHoldsLeaseUntilAcked drives a worker against a fake manager.
// The worker must keep holding (and so heartbeating) its lease while it
// syncs the finished shard's results, and drop it only once a poll
// carrying the completion succeeds: a lease dropped before its ack stops
// being renewed and expires whenever the sync outlasts the TTL.
func TestWorkerHoldsLeaseUntilAcked(t *testing.T) {
	const leaseID = 1<<32 | 1
	var (
		w          *Worker
		mu         sync.Mutex
		polls      int
		acked      uint64
		heldAtSync []uint64
	)
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, RegisterResponse{
			V: ProtocolVersion, WorkerID: 1, Epoch: 1, Campaign: testCampaign(),
			HeartbeatMS: time.Hour.Milliseconds(),
		})
	})
	mux.HandleFunc(PathPoll, func(rw http.ResponseWriter, r *http.Request) {
		var req PollRequest
		if err := readJSON(r, &req); err != nil {
			writeError(rw, http.StatusBadRequest, "%v", err)
			return
		}
		mu.Lock()
		polls++
		first := polls == 1
		if !first {
			acked = req.Completed
		}
		mu.Unlock()
		resp := PollResponse{V: ProtocolVersion, Done: true}
		if first {
			resp = PollResponse{V: ProtocolVersion, Lease: &Lease{ID: leaseID, Seed: 1, Steps: 2, TTLMS: 1000}}
		}
		writeJSON(rw, http.StatusOK, resp)
	})
	mux.HandleFunc(PathSync, func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.mu.Lock()
		heldAtSync = append(heldAtSync, w.held)
		w.mu.Unlock()
		writeJSON(rw, http.StatusOK, SyncResponse{V: ProtocolVersion})
	})
	mux.HandleFunc(PathReport, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, ReportResponse{V: ProtocolVersion})
	})
	mux.HandleFunc(PathHeartbeat, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, HeartbeatResponse{V: ProtocolVersion, OK: true})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	mu.Lock()
	w = testWorker(srv, "w")
	mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(heldAtSync) != 2 {
		t.Fatalf("worker synced %d times, want 2 (after the lease, then deregistering)", len(heldAtSync))
	}
	if heldAtSync[0] != leaseID {
		t.Errorf("lease held while syncing the finished shard = %#x, want %#x", heldAtSync[0], uint64(leaseID))
	}
	if acked != leaseID {
		t.Errorf("second poll acknowledged lease %#x, want %#x", acked, uint64(leaseID))
	}
	if heldAtSync[1] != 0 {
		t.Errorf("lease still held after its acknowledgement: %#x", heldAtSync[1])
	}
}

// TestManagerMetricsEndpoint: the manager's listener also serves its
// registry for scrapers.
func TestManagerMetricsEndpoint(t *testing.T) {
	_, srv := startManager(t, fastManagerConfig(10, 10))
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ozz_dist_workers_connected", "ozz_dist_leases_pending"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics output lacks %s", name)
		}
	}
}

// TestGracefulShutdownFlushes: cancelling a worker mid-campaign flushes
// its findings and corpus to the manager via the final deregistering
// sync; the manager requeues its leases and drops it from the connected
// gauge — nothing is lost. The campaign is far longer than the worker
// runs before the cancel, so the cancel always lands mid-campaign.
func TestGracefulShutdownFlushes(t *testing.T) {
	cfg := fastManagerConfig(4000, 10)
	m, srv := startManager(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w := testWorker(srv, "w")
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Wait until the worker has produced something worth losing.
	deadline := time.Now().Add(20 * time.Second)
	for m.CorpusLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.CorpusLen() == 0 {
		t.Fatal("campaign produced no corpus to test the flush with")
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("worker Run = %v, want context.Canceled", err)
	}

	if got := m.WorkersConnected(); got != 0 {
		t.Errorf("workers_connected = %d after graceful shutdown, want 0", got)
	}
	// Every program and finding the worker held must be at the manager.
	managerHas := make(map[string]struct{})
	for _, h := range m.CorpusKeyHashes() {
		managerHas[h] = struct{}{}
	}
	w.mu.Lock()
	workerHashes := append([]string(nil), w.corpusOrder...)
	workerTitles := w.reports.Titles()
	w.mu.Unlock()
	for _, h := range workerHashes {
		if _, ok := managerHas[h]; !ok {
			t.Errorf("worker corpus program %s lost in shutdown", h)
		}
	}
	globalTitles := make(map[string]struct{})
	for _, title := range m.ReportTitles() {
		globalTitles[title] = struct{}{}
	}
	for _, title := range workerTitles {
		if _, ok := globalTitles[title]; !ok {
			t.Errorf("worker finding %q lost in shutdown", title)
		}
	}
	// The worker's in-flight shard went back on the queue.
	m.mu.Lock()
	pendingPlusDone := len(m.pending) + m.completed + len(m.inflight)
	total := len(m.shards)
	m.mu.Unlock()
	if pendingPlusDone != total {
		t.Errorf("shard accounting broken after shutdown: pending+completed+inflight = %d, shards = %d",
			pendingPlusDone, total)
	}
}
