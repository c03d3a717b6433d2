package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
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
		Campaign:        testCampaign(),
		TotalSteps:      totalSteps,
		ShardSteps:      shardSteps,
		Seed:            1,
		LeaseTTL:        500 * time.Millisecond,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 2,
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
	// Disable work stealing so the TTL sweep (not an instant duplicate
	// lease) is what rescues the victim's shard — that path must keep
	// working when stealing is off.
	cfg.StealDuplicates = -1
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

// TestManagerUnknownWorker: traffic from an unregistered worker ID is
// turned away with HTTP 410 so the client knows to re-register.
func TestManagerUnknownWorker(t *testing.T) {
	_, srv := startManager(t, fastManagerConfig(10, 10))
	err := postJSON(srv.Client(), srv.URL+PathPoll, PollRequest{V: ProtocolVersion, WorkerID: 42, Epoch: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "HTTP 410") {
		t.Errorf("unknown worker poll: err = %v, want HTTP 410", err)
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
// gauge — nothing is lost.
func TestGracefulShutdownFlushes(t *testing.T) {
	cfg := fastManagerConfig(200, 10)
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
	c := m.camps[DefaultCampaign]
	pendingPlusDone := len(c.pending) + c.completed + len(c.inflight)
	total := len(c.shards)
	m.mu.Unlock()
	if pendingPlusDone != total {
		t.Errorf("shard accounting broken after shutdown: pending+completed+inflight = %d, shards = %d",
			pendingPlusDone, total)
	}
}
