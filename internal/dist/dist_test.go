package dist

import (
	"bytes"
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
	"ozz/internal/obs"
	"ozz/internal/report"
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

// TestProtocolVersionMismatch: a wrong-version client is rejected with
// HTTP 400 and a JSON error body on every endpoint.
func TestProtocolVersionMismatch(t *testing.T) {
	_, srv := startManager(t, fastManagerConfig(10, 10))
	for _, path := range []string{PathRegister, PathPoll, PathHeartbeat} {
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

// TestWorkerHoldsLeaseUntilAcked drives a worker against a fake manager
// that fails the first poll completing the lease with a transient 503.
// The worker must keep holding (and so heartbeating) the lease while it
// retries, resend the same results with the completion, and drop the
// lease only once a poll carrying them succeeds.
func TestWorkerHoldsLeaseUntilAcked(t *testing.T) {
	const leaseID = 1<<32 | 1
	var (
		w     *Worker
		mu    sync.Mutex
		polls []PollRequest
		held  []uint64 // the worker's held lease as each poll arrived
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
		defer mu.Unlock()
		polls = append(polls, req)
		w.mu.Lock()
		held = append(held, w.held)
		w.mu.Unlock()
		switch len(polls) {
		case 1:
			writeJSON(rw, http.StatusOK, PollResponse{V: ProtocolVersion, Lease: &Lease{ID: leaseID, Seed: 1, Steps: 2, TTLMS: 1000}})
		case 2:
			writeError(rw, http.StatusServiceUnavailable, "transient")
		default:
			writeJSON(rw, http.StatusOK, PollResponse{V: ProtocolVersion, Done: true})
		}
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
	if len(polls) != 4 {
		t.Fatalf("worker polled %d times, want 4 (lease, failed ack, retried ack, deregister)", len(polls))
	}
	failed, retried, last := polls[1], polls[2], polls[3]
	for i, p := range []PollRequest{failed, retried} {
		if p.Completed != leaseID || held[i+1] != leaseID {
			t.Errorf("ack poll %d: completed %#x with lease %#x held, want %#x for both", i+1, p.Completed, held[i+1], uint64(leaseID))
		}
	}
	if failed.Programs == "" {
		t.Error("the completing poll carries no corpus")
	}
	a, _ := json.Marshal(failed)
	b, _ := json.Marshal(retried)
	if string(a) != string(b) {
		t.Errorf("retried poll differs from the failed one:\n%s\n%s", a, b)
	}
	if !last.Deregister || last.Completed != 0 || last.Programs != "" || len(last.Reports) != 0 {
		t.Errorf("last poll = %+v, want a bare deregistering poll", last)
	}
	if held[3] != 0 {
		t.Errorf("lease still held after its acknowledgement: %#x", held[3])
	}
}

// TestLostResultsRegression: one transient 503 hits the poll that ships
// shard 1's results, then the worker dies on its next lease and a second
// worker finishes the campaign. The retried poll must have delivered the
// results before the completion, so the campaign still equals the
// standalone run.
func TestLostResultsRegression(t *testing.T) {
	cfg := fastManagerConfig(40, 10)
	wantReports, wantCorpus := RunShardsLocal(cfg, 2)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handler()
	var injected atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathPoll {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req PollRequest
			if json.Unmarshal(body, &req) == nil && req.Completed != 0 && injected.CompareAndSwap(false, true) {
				writeError(w, http.StatusServiceUnavailable, "injected")
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	victim := testWorker(srv, "victim")
	victim.dieAfterLeases = 2
	if err := victim.Run(ctx); err == nil {
		t.Fatal("victim should have died by test hook")
	}
	if !injected.Load() {
		t.Fatal("no completing poll was failed")
	}
	if err := testWorker(srv, "survivor").Run(ctx); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if got, want := strings.Join(m.ReportTitles(), "|"), strings.Join(wantReports.Titles(), "|"); got != want {
		t.Errorf("titles %q != standalone %q", got, want)
	}
	wantHashes := make([]string, 0, len(wantCorpus))
	for _, p := range wantCorpus {
		wantHashes = append(wantHashes, progHash(p))
	}
	if got, want := sortedCopy(m.CorpusKeyHashes()), sortedCopy(wantHashes); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("corpus has %d programs, standalone %d", len(got), len(want))
	}
}

// completingPoll runs lease's shard through a worker's runLease and
// returns the poll that ships its results and completion under reg.
func completingPoll(reg RegisterResponse, lease *Lease) PollRequest {
	w := NewWorker(WorkerConfig{PoolWorkers: 2})
	w.campaign = reg.Campaign
	req := w.runLease(context.Background(), lease)
	req.V, req.WorkerID, req.Epoch = ProtocolVersion, reg.WorkerID, reg.Epoch
	return req
}

// registerAndLease registers a hand-driven worker on srv and takes one
// lease.
func registerAndLease(t *testing.T, srv *httptest.Server) (RegisterResponse, *Lease) {
	t.Helper()
	var reg RegisterResponse
	if err := postJSON(srv.Client(), srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatal(err)
	}
	var poll PollResponse
	if err := postJSON(srv.Client(), srv.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, &poll); err != nil {
		t.Fatal(err)
	}
	if poll.Lease == nil {
		t.Fatal("no lease granted")
	}
	return reg, poll.Lease
}

// TestCompletingPollIdempotent: replaying a completing poll, as a worker
// does when the reply to the first one was lost, leaves the corpus, the
// reports and the completed-shard count unchanged.
func TestCompletingPollIdempotent(t *testing.T) {
	cfg := fastManagerConfig(40, 10)
	cfg.HeartbeatEvery = time.Hour // keep the hand-driven worker alive
	m, srv := startManager(t, cfg)
	reg, lease := registerAndLease(t, srv)
	req := completingPoll(reg, lease)
	req.Reports = append(req.Reports, &report.Report{Title: "KCSAN: data-race in retry_test"})

	if err := postJSON(srv.Client(), srv.URL+PathPoll, req, nil); err != nil {
		t.Fatal(err)
	}
	corpus, titles, done := m.CorpusKeyHashes(), m.ReportTitles(), m.ShardsCompleted()
	if len(corpus) == 0 || done != 1 {
		t.Fatalf("first completing poll: %d programs, %d shards completed; want some and 1", len(corpus), done)
	}
	if err := postJSON(srv.Client(), srv.URL+PathPoll, req, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.CorpusKeyHashes(); strings.Join(got, "|") != strings.Join(corpus, "|") {
		t.Errorf("replayed poll changed the corpus: %d -> %d programs", len(corpus), len(got))
	}
	if got := m.ReportTitles(); strings.Join(got, "|") != strings.Join(titles, "|") {
		t.Errorf("replayed poll changed the reports: %v -> %v", titles, got)
	}
	if got := m.ShardsCompleted(); got != done {
		t.Errorf("replayed poll changed the completed shards: %d -> %d", done, got)
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

// TestGracefulShutdownFlushes: cancelling a worker mid-shard ships the
// shard's partial run to the manager on the deregistering poll; the
// manager admits it without completing the shard, requeues the lease and
// drops the worker from the connected gauge. The single shard is far
// longer than the worker runs before the cancel, so the cancel always
// lands mid-shard.
func TestGracefulShutdownFlushes(t *testing.T) {
	cfg := fastManagerConfig(100000, 100000)
	m, srv := startManager(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reg := obs.NewRegistry()
	steps := reg.Counter("ozz_campaign_steps_total", "")
	w := NewWorker(WorkerConfig{
		ManagerURL: srv.URL, Name: "w", PoolWorkers: 2, Obs: reg,
		HTTPClient: srv.Client(), MaxBackoff: 200 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Wait until the worker has produced something worth losing.
	deadline := time.Now().Add(20 * time.Second)
	for steps.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if steps.Value() == 0 {
		t.Fatal("the worker ran no step to test the flush with")
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("worker Run = %v, want context.Canceled", err)
	}

	if got := m.WorkersConnected(); got != 0 {
		t.Errorf("workers_connected = %d after graceful shutdown, want 0", got)
	}
	if got := m.ShardsCompleted(); got != 0 {
		t.Errorf("shards completed = %d, want 0: the cancel interrupted the only shard", got)
	}
	// The manager holds exactly the partial run: the first steps of the
	// shard, which a local pool reproduces.
	ran := int(steps.Value())
	pool := core.NewPool(coreConfig(cfg.Campaign, Shards(cfg.Seed, cfg.TotalSteps, cfg.ShardSteps)[0].Seed, nil, nil), 2)
	pool.Run(ran)
	var want []string
	for _, p := range pool.CorpusPrograms() {
		want = append(want, progHash(p))
	}
	if len(want) == 0 {
		t.Fatalf("the %d-step partial run has no corpus to test the flush with", ran)
	}
	if got := m.CorpusKeyHashes(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("manager corpus has %d programs, the %d-step partial run %d", len(got), ran, len(want))
	}
	var titles []string
	for _, r := range pool.Reports.All() {
		titles = append(titles, r.Title)
	}
	if got, want := strings.Join(m.ReportTitles(), "|"), sortedJoin(titles); got != want {
		t.Errorf("manager reports %q, the partial run %q", got, want)
	}
	// The worker's in-flight shard went back on the queue.
	m.mu.Lock()
	pending, inflight := len(m.pending), len(m.inflight)
	m.mu.Unlock()
	if pending != 1 || inflight != 0 {
		t.Errorf("after shutdown: %d pending, %d in flight; want the one shard pending", pending, inflight)
	}
}
