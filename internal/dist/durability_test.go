package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// httptestServer serves an already-built manager over a test listener.
func httptestServer(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// durableConfig is fastManagerConfig plus a state directory.
func durableConfig(t *testing.T, totalSteps, shardSteps int) ManagerConfig {
	cfg := fastManagerConfig(totalSteps, shardSteps)
	cfg.StateDir = t.TempDir()
	return cfg
}

// testProgram parses one watchqueue program for corpus plumbing tests.
func testProgram(t *testing.T, src string) *syzlang.Program {
	t.Helper()
	p, err := modules.Target("watchqueue").Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestManagerRestartResume is the durability tentpole end to end: a
// manager accumulates state, "crashes" (a second manager opens the same
// state directory, exactly what a SIGKILL + restart does), and the
// successor resumes — epoch bumped, completed shards remembered, corpus
// and reports intact, stale-epoch traffic fenced with HTTP 410, and the
// re-registered fleet finishes the campaign with the exact standalone
// result.
func TestManagerRestartResume(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	wantReports, wantCorpus := RunShardsLocal(cfg, 2)

	m1, srv1 := startManager(t, cfg)
	client := srv1.Client()

	// A hand-driven worker completes one shard and ships one program and
	// one finding, all of which must survive the crash.
	var reg RegisterResponse
	if err := postJSON(client, srv1.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch != 1 {
		t.Fatalf("fresh campaign epoch = %d, want 1", reg.Epoch)
	}
	var poll PollResponse
	if err := postJSON(client, srv1.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Leases) == 0 {
		t.Fatal("no lease granted")
	}
	// Run the first leased shard for real (as a worker would), then sync
	// its corpus plus one injected marker program, push its findings plus
	// one injected marker report, and only then ack the completion — the
	// same order a real worker uses, so nothing acked is ever unsynced.
	lease := poll.Leases[0]
	pool := core.NewPool(coreConfig(testCampaign(), lease.Seed, nil, nil), 2)
	pool.Run(lease.Steps)
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	shipped := append(pool.CorpusPrograms(), prog)
	keys := make([]string, 0, len(shipped))
	for _, p := range shipped {
		keys = append(keys, progHash(p))
	}
	var payload strings.Builder
	if err := core.EncodePrograms(&payload, shipped); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(client, srv1.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Keys: keys, Programs: payload.String(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	marker := &report.Report{Title: "KCSAN: data-race in restart_test"}
	if err := postJSON(client, srv1.URL+PathReport, ReportRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Reports: append(pool.Reports.All(), marker),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(client, srv1.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Completed: []uint64{lease.ID},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if m1.ShardsCompleted() != 1 {
		t.Fatalf("shards completed = %d, want 1", m1.ShardsCompleted())
	}

	// Crash: m1 is never closed — the successor opens the same state dir
	// over its live WAL handle, exactly the SIGKILL posture.
	srv1.Close()
	m2, srv2 := startManager(t, cfg)

	if got := m2.Epoch(); got != 2 {
		t.Errorf("restarted epoch = %d, want 2", got)
	}
	if got := m2.do.walReplays.Value(); got < 1 {
		t.Errorf("wal_replays_total = %d, want >= 1", got)
	}
	if m2.ShardsCompleted() != 1 {
		t.Errorf("restarted manager remembers %d completed shards, want 1", m2.ShardsCompleted())
	}
	restored := make(map[string]struct{})
	for _, h := range m2.CorpusKeyHashes() {
		restored[h] = struct{}{}
	}
	for _, k := range keys {
		if _, ok := restored[k]; !ok {
			t.Errorf("restarted corpus lost journaled program %s", k)
		}
	}
	gotRestored := strings.Join(m2.ReportTitles(), "|")
	if !strings.Contains(gotRestored, marker.Title) {
		t.Errorf("restarted reports %q lost the journaled finding %q", gotRestored, marker.Title)
	}

	// Pre-restart identity is fenced off with HTTP 410 — the transparent
	// re-register cue.
	err := postJSON(srv2.Client(), srv2.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, nil)
	if errStatus(err) != 410 {
		t.Errorf("stale-epoch poll: err = %v, want HTTP 410", err)
	}

	// A real worker (which performs that re-register handshake internally
	// on the 410) finishes the campaign to the exact standalone result.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := testWorker(srv2, "resumer").Run(ctx); err != nil {
		t.Fatalf("worker after restart: %v", err)
	}
	if !m2.Done() {
		t.Fatal("campaign not done after resumed run")
	}
	gotTitles := strings.Join(m2.ReportTitles(), "|")
	wantTitles := strings.Join(append(wantReports.Titles(), "KCSAN: data-race in restart_test"), "|")
	if sortedJoin(m2.ReportTitles()) != sortedJoin(strings.Split(wantTitles, "|")) {
		t.Errorf("resumed titles %q != standalone+injected %q", gotTitles, wantTitles)
	}
	// The resumed corpus must contain every standalone program (plus the
	// injected one).
	has := make(map[string]struct{})
	for _, h := range m2.CorpusKeyHashes() {
		has[h] = struct{}{}
	}
	for _, p := range wantCorpus {
		if _, ok := has[progHash(p)]; !ok {
			t.Errorf("resumed corpus lost standalone program %s", progHash(p))
		}
	}
}

// sortedJoin joins a sorted copy for order-insensitive comparison.
func sortedJoin(in []string) string { return strings.Join(sortedCopy(in), "|") }

// TestWALTornRecord: a crash mid-append leaves a torn final record; the
// restarted manager truncates it and resumes from the last intact state
// instead of erroring out.
func TestWALTornRecord(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	m1, _ := startManager(t, cfg)
	m1.mu.Lock()
	c := m1.camps[DefaultCampaign]
	c.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	c.admitReportLocked(&report.Report{Title: "torn-test finding"}, true)
	m1.mu.Unlock()

	// Tear the tail: a record whose line was cut mid-write.
	wal := walPath(campaignDir(cfg.StateDir, DefaultCampaign))
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"program","crc":123,"d":{"src":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, _ := startManager(t, cfg)
	if got := m2.do.walTorn.Value(); got != 1 {
		t.Errorf("wal_torn_records_total = %d, want 1", got)
	}
	if m2.CorpusLen() != 1 {
		t.Errorf("corpus after torn-tail recovery = %d, want 1 (intact records replayed)", m2.CorpusLen())
	}
	if titles := m2.ReportTitles(); len(titles) != 1 || titles[0] != "torn-test finding" {
		t.Errorf("reports after torn-tail recovery = %v", titles)
	}
	// The truncation leaves a clean record boundary: a third manager must
	// replay without seeing any torn bytes.
	m3, _ := startManager(t, cfg)
	if got := m3.do.walTorn.Value(); got != 0 {
		t.Errorf("second recovery still sees a torn tail (%d)", got)
	}
	if m3.CorpusLen() != 1 {
		t.Errorf("second recovery corpus = %d, want 1", m3.CorpusLen())
	}
}

// TestWALTornRecordMissingNewline: a final record whose write was cut
// exactly at the line boundary — valid JSON, valid CRC, no trailing
// newline — is still the torn tail. It must not be applied (the next
// append would concatenate onto it and poison a later replay) and must
// be truncated so subsequent appends start from a clean boundary.
func TestWALTornRecordMissingNewline(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	m1, _ := startManager(t, cfg)
	m1.mu.Lock()
	m1.camps[DefaultCampaign].admitProgramLocked(
		testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	m1.mu.Unlock()

	d, err := json.Marshal(walProgramD{Src: "r0 = wq_create()\nwq_set_filter(r0, 0x2)\n"})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(walRecord{T: walProgram, CRC: crc32.ChecksumIEEE(d), D: d})
	if err != nil {
		t.Fatal(err)
	}
	wal := walPath(campaignDir(cfg.StateDir, DefaultCampaign))
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil { // deliberately no '\n'
		t.Fatal(err)
	}
	f.Close()

	m2, _ := startManager(t, cfg)
	if got := m2.do.walTorn.Value(); got != 1 {
		t.Errorf("wal_torn_records_total = %d, want 1", got)
	}
	if m2.CorpusLen() != 1 {
		t.Errorf("corpus after recovery = %d, want 1 (the newline-less record must not apply)", m2.CorpusLen())
	}
	// The tail was truncated: this append lands on a clean boundary, and a
	// third manager replays everything without loss.
	m2.mu.Lock()
	m2.camps[DefaultCampaign].admitProgramLocked(
		testProgram(t, "r0 = wq_create()\nwq_post_notification(r0, 0x4)\n"), true)
	m2.mu.Unlock()
	m3, _ := startManager(t, cfg)
	if got := m3.do.walTorn.Value(); got != 0 {
		t.Errorf("second recovery still sees a torn tail (%d)", got)
	}
	if m3.CorpusLen() != 2 {
		t.Errorf("second recovery corpus = %d, want both intact programs", m3.CorpusLen())
	}
}

// TestRestartBeforeFirstSnapshotKeepsPlan: the plan parameters live only
// in snapshots, so a durable campaign writes one at first open — a crash
// before the first periodic compaction must restore the full shard plan
// (not a zero-shard husk) and keep the completions journaled meanwhile.
func TestRestartBeforeFirstSnapshotKeepsPlan(t *testing.T) {
	cfg := durableConfig(t, 10, 10)
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddCampaign("extra", CampaignConfig{
		Campaign: testCampaign(), TotalSteps: 20, ShardSteps: 10, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	m1.mu.Lock()
	c1 := m1.camps["extra"]
	id, _ := c1.registerLocked("w", 0)
	granted, _ := c1.grantLocked(c1.workers[id])
	if len(granted) == 0 {
		m1.mu.Unlock()
		t.Fatal("no lease granted on the extra campaign")
	}
	c1.completeLocked(c1.workers[id], granted[0].ID)
	m1.mu.Unlock()

	// Crash (no Close, so no shutdown compaction) and restart.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	c2 := m2.camps["extra"]
	if c2 == nil {
		m2.mu.Unlock()
		t.Fatal("extra campaign not restored from the state dir")
	}
	shards, completed := len(c2.shards), c2.completed
	total, seed := c2.cfg.TotalSteps, c2.cfg.Seed
	done := c2.doneLocked()
	m2.mu.Unlock()
	if shards != 2 || total != 20 || seed != 5 {
		t.Errorf("restored plan: %d shards, total=%d, seed=%d; want 2 shards of the 20/5 plan", shards, total, seed)
	}
	if completed != 1 {
		t.Errorf("restored completed shards = %d, want the 1 journaled before the crash", completed)
	}
	if done {
		t.Error("half-finished campaign restored as instantly done")
	}
}

// TestAddCampaignAdoptsPlanForLegacyState: a state directory holding only
// a WAL (no snapshot — the layout a pre-initial-snapshot manager left
// behind) restores with an empty plan; re-adding the campaign via
// -add-campaign must adopt the supplied plan, keeping the WAL-replayed
// corpus, instead of leaving the zero-shard campaign and only updating
// its token.
func TestAddCampaignAdoptsPlanForLegacyState(t *testing.T) {
	cfg := durableConfig(t, 10, 10)
	extra := CampaignConfig{Campaign: testCampaign(), TotalSteps: 20, ShardSteps: 10, Seed: 5, Token: "tok"}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddCampaign("legacy", extra); err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	m1.mu.Lock()
	m1.camps["legacy"].admitProgramLocked(prog, true)
	m1.mu.Unlock()
	// Simulate the legacy layout: WAL only, no snapshot.
	if err := os.Remove(snapshotPath(campaignDir(cfg.StateDir, "legacy"))); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.AddCampaign("legacy", extra); err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	c2 := m2.camps["legacy"]
	shards, corpus, token := len(c2.shards), len(c2.corpusOrder), c2.cfg.Token
	m2.mu.Unlock()
	if shards != 2 {
		t.Errorf("re-added legacy campaign has %d shards, want the adopted 2-shard plan", shards)
	}
	if corpus != 1 {
		t.Errorf("adoption lost the WAL-replayed corpus: %d programs, want 1", corpus)
	}
	if token != "tok" {
		t.Errorf("re-added campaign token = %q, want %q", token, "tok")
	}
	// The adopted plan was persisted: a further restart restores it even
	// without another AddCampaign.
	m3, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m3.mu.Lock()
	shards = len(m3.camps["legacy"].shards)
	m3.mu.Unlock()
	if shards != 2 {
		t.Errorf("restart after adoption restored %d shards, want 2", shards)
	}
}

// TestLeaseExpiryAtTTLBoundary pins the sweep's comparison: a lease at
// exactly TTL is still live; one nanosecond past it is requeued.
func TestLeaseExpiryAtTTLBoundary(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	cfg.HeartbeatEvery = time.Hour // isolate lease expiry from worker death
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	now := base
	m.now = func() time.Time { return now }

	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	id, _ := c.registerLocked("w", 0)
	ws := c.workers[id]
	granted, _ := c.grantLocked(ws)
	m.mu.Unlock()
	if len(granted) != 1 {
		t.Fatalf("granted %d leases, want 1", len(granted))
	}

	now = base.Add(cfg.LeaseTTL) // exactly at the boundary
	m.mu.Lock()
	ws.lastSeen = now
	m.mu.Unlock()
	m.sweep()
	m.mu.Lock()
	inflight, pending := len(c.inflight), len(c.pending)
	m.mu.Unlock()
	if inflight != 1 || pending != 0 {
		t.Fatalf("at exactly TTL: inflight=%d pending=%d, want the lease still live", inflight, pending)
	}

	now = now.Add(time.Nanosecond) // one past the boundary
	m.mu.Lock()
	ws.lastSeen = now
	m.mu.Unlock()
	m.sweep()
	m.mu.Lock()
	inflight, pending = len(c.inflight), len(c.pending)
	m.mu.Unlock()
	if inflight != 0 || pending != 1 {
		t.Fatalf("past TTL: inflight=%d pending=%d, want the shard requeued", inflight, pending)
	}
	if got := m.do.leaseReassigns.Value(); got != 1 {
		t.Errorf("lease_reassignments_total = %d, want 1", got)
	}
}

// TestWorkStealing: with the pending queue empty, an idle worker gets a
// duplicate lease on an in-flight shard (capped by StealDuplicates), and
// finishing it first counts a steal win; determinism makes the race
// harmless.
func TestWorkStealing(t *testing.T) {
	cfg := fastManagerConfig(10, 10) // exactly one shard
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	id1, _ := c.registerLocked("holder", 0)
	g1, stolen1 := c.grantLocked(c.workers[id1])
	id2, _ := c.registerLocked("thief", 0)
	g2, stolen2 := c.grantLocked(c.workers[id2])
	id3, _ := c.registerLocked("late", 0)
	g3, _ := c.grantLocked(c.workers[id3])
	m.mu.Unlock()

	if len(g1) != 1 || stolen1 {
		t.Fatalf("holder grant = %d leases (stolen=%v), want 1 regular", len(g1), stolen1)
	}
	if len(g2) != 1 || !stolen2 || g2[0].Shard != g1[0].Shard {
		t.Fatalf("thief grant = %+v (stolen=%v), want a duplicate of shard %d", g2, stolen2, g1[0].Shard)
	}
	if len(g3) != 0 {
		t.Fatalf("third worker got %d leases, want 0 (StealDuplicates cap)", len(g3))
	}
	if got := m.do.stealGrants.Value(); got != 1 {
		t.Errorf("steal_grants_total = %d, want 1", got)
	}

	// The thief finishes first: a steal win; the holder's lease retires.
	m.mu.Lock()
	c.completeLocked(c.workers[id2], g2[0].ID)
	inflight := len(c.inflight)
	done := c.completed
	m.mu.Unlock()
	if done != 1 || inflight != 0 {
		t.Fatalf("after steal win: completed=%d inflight=%d, want 1 and 0", done, inflight)
	}
	if got := m.do.stealWins.Value(); got != 1 {
		t.Errorf("steal_wins_total = %d, want 1", got)
	}
	// The holder's late completion of the retired lease is a no-op.
	m.mu.Lock()
	c.completeLocked(c.workers[id1], g1[0].ID)
	done = c.completed
	m.mu.Unlock()
	if done != 1 {
		t.Errorf("duplicate completion double-counted: completed=%d", done)
	}
}

// TestEpochReregisterReleasesStaleLease: a worker that re-registers while
// its previous incarnation still holds an unexpired lease gets that lease
// eagerly released — the shard is grantable immediately, not after the
// TTL sweep.
func TestEpochReregisterReleasesStaleLease(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	cfg.LeaseTTL = time.Hour // the sweep alone would strand the shard
	_, srv := startManager(t, cfg)
	client := srv.Client()

	var reg RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatal(err)
	}
	var poll PollResponse
	if err := postJSON(client, srv.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
	}, &poll); err != nil {
		t.Fatal(err)
	}
	if len(poll.Leases) != 1 {
		t.Fatalf("granted %d leases, want 1", len(poll.Leases))
	}

	// The worker restarts and re-registers, naming its previous identity.
	var reg2 RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Name: "w", PrevWorkerID: reg.WorkerID, PrevEpoch: reg.Epoch,
	}, &reg2); err != nil {
		t.Fatal(err)
	}
	if reg2.WorkerID == reg.WorkerID {
		t.Fatalf("re-register reused worker ID %d", reg.WorkerID)
	}
	// The shard must be grantable right now, despite the hour-long TTL.
	var poll2 PollResponse
	if err := postJSON(client, srv.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg2.WorkerID, Epoch: reg2.Epoch,
	}, &poll2); err != nil {
		t.Fatal(err)
	}
	if len(poll2.Leases) != 1 || poll2.Leases[0].Shard != poll.Leases[0].Shard {
		t.Fatalf("re-registered worker polls %+v, want the eagerly released shard %d",
			poll2.Leases, poll.Leases[0].Shard)
	}
	if poll2.Leases[0].ID == poll.Leases[0].ID {
		t.Error("released shard re-granted under the same lease ID")
	}
}

// TestMultiTenancy: one manager hosts named campaigns with per-campaign
// tokens; wrong tokens get HTTP 403, unknown campaigns HTTP 404, and each
// campaign's corpus is isolated from the others'.
func TestMultiTenancy(t *testing.T) {
	cfg := fastManagerConfig(10, 10)
	m, srv := startManager(t, cfg)
	if err := m.AddCampaign("alpha", CampaignConfig{
		Campaign: testCampaign(), TotalSteps: 10, Seed: 7, Token: "secret",
	}); err != nil {
		t.Fatal(err)
	}
	client := srv.Client()

	err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Campaign: "alpha",
	}, nil)
	if errStatus(err) != 403 {
		t.Errorf("tokenless register on tokened campaign: %v, want HTTP 403", err)
	}
	err = postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Campaign: "nosuch",
	}, nil)
	if errStatus(err) != 404 {
		t.Errorf("unknown campaign register: %v, want HTTP 404", err)
	}

	var regA RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Campaign: "alpha", Token: "secret", Name: "a",
	}, &regA); err != nil {
		t.Fatalf("tokened register: %v", err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	var payload strings.Builder
	if err := core.EncodePrograms(&payload, []*syzlang.Program{prog}); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(client, srv.URL+PathSync, SyncRequest{
		V: ProtocolVersion, WorkerID: regA.WorkerID, Campaign: "alpha", Token: "secret",
		Epoch: regA.Epoch, Keys: []string{progHash(prog)}, Programs: payload.String(),
	}, nil); err != nil {
		t.Fatal(err)
	}

	// Isolation: the program lives in alpha, not in the default campaign.
	if m.CorpusLen() != 0 {
		t.Errorf("default campaign corpus = %d, want 0 (isolation)", m.CorpusLen())
	}
	m.mu.Lock()
	alphaCorpus := len(m.camps["alpha"].corpusOrder)
	m.mu.Unlock()
	if alphaCorpus != 1 {
		t.Errorf("alpha corpus = %d, want 1", alphaCorpus)
	}
	if got := m.do.campaigns.Value(); got != 2 {
		t.Errorf("ozz_dist_campaigns = %v, want 2", got)
	}
	if names := m.Campaigns(); len(names) != 2 || names[0] != DefaultCampaign || names[1] != "alpha" {
		t.Errorf("Campaigns() = %v", names)
	}
	if m.AddCampaign("bad/name", CampaignConfig{}) == nil {
		t.Error("AddCampaign accepted a filesystem-unsafe name")
	}
}

// TestMultiTenancyEndToEnd runs real workers against two campaigns on one
// manager concurrently; each campaign independently matches its own
// standalone result.
func TestMultiTenancyEndToEnd(t *testing.T) {
	cfg := fastManagerConfig(30, 10)
	alphaCfg := CampaignConfig{Campaign: testCampaign(), TotalSteps: 30, ShardSteps: 10, Seed: 99, Token: "s3cr3t"}
	m, srv := startManager(t, cfg)
	if err := m.AddCampaign("alpha", alphaCfg); err != nil {
		t.Fatal(err)
	}
	wantDefault, _ := RunShardsLocal(cfg, 2)
	wantAlpha, _ := RunShardsLocal(ManagerConfig{
		Campaign: alphaCfg.Campaign, TotalSteps: alphaCfg.TotalSteps,
		ShardSteps: alphaCfg.ShardSteps, Seed: alphaCfg.Seed,
	}, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errc := make(chan error, 2)
	go func() { errc <- testWorker(srv, "wd").Run(ctx) }()
	go func() {
		w := NewWorker(WorkerConfig{
			ManagerURL: srv.URL, Name: "wa", Campaign: "alpha", Token: "s3cr3t",
			PoolWorkers: 2, HTTPClient: srv.Client(), MaxBackoff: 200 * time.Millisecond,
		})
		errc <- w.Run(ctx)
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !m.AllDone() {
		t.Fatal("both workers exited but not every campaign is done")
	}
	if got := strings.Join(m.ReportTitles(), "|"); got != strings.Join(wantDefault.Titles(), "|") {
		t.Errorf("default campaign titles %q != standalone %q", got, wantDefault.Titles())
	}
	m.mu.Lock()
	alphaTitles := m.camps["alpha"].reports.Titles()
	m.mu.Unlock()
	if got := strings.Join(alphaTitles, "|"); got != strings.Join(wantAlpha.Titles(), "|") {
		t.Errorf("alpha campaign titles %q != standalone %q", got, wantAlpha.Titles())
	}
}

// TestProtocolNegotiation: the manager answers at ProtocolVersion and
// rejects every other version — the retired version 1 included — with
// HTTP 400 on register and poll.
func TestProtocolNegotiation(t *testing.T) {
	_, srv := startManager(t, fastManagerConfig(40, 10))
	client := srv.Client()

	var reg RegisterResponse
	if err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion, Name: "w"}, &reg); err != nil {
		t.Fatalf("current-version register: %v", err)
	}
	if reg.V != ProtocolVersion {
		t.Errorf("register answered at version %d, want %d", reg.V, ProtocolVersion)
	}
	for _, v := range []int{0, 1, ProtocolVersion + 1} {
		err := postJSON(client, srv.URL+PathRegister, RegisterRequest{V: v, Name: "old"}, nil)
		if errStatus(err) != 400 {
			t.Errorf("version-%d register: %v, want HTTP 400", v, err)
		}
		err = postJSON(client, srv.URL+PathPoll, PollRequest{V: v, WorkerID: reg.WorkerID, Epoch: reg.Epoch}, nil)
		if errStatus(err) != 400 {
			t.Errorf("version-%d poll: %v, want HTTP 400", v, err)
		}
	}
}

// TestExportImportRoundTrip: a campaign exported from one manager and
// imported into another carries its corpus, reports, and completed-shard
// frontier; the import bumps the epoch and honors the new token.
func TestExportImportRoundTrip(t *testing.T) {
	cfg := fastManagerConfig(20, 10)
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	m1.mu.Lock()
	c1 := m1.camps[DefaultCampaign]
	c1.admitProgramLocked(prog, true)
	c1.admitReportLocked(&report.Report{Title: "exported finding"}, true)
	c1.shards[0].completed = true
	c1.completed++
	m1.mu.Unlock()

	var buf bytes.Buffer
	if err := m1.ExportCampaign(DefaultCampaign, &buf); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(fastManagerConfig(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	name, err := m2.ImportCampaign(bytes.NewReader(buf.Bytes()), "newtok")
	if err != nil {
		t.Fatal(err)
	}
	if name != DefaultCampaign {
		t.Fatalf("imported campaign name %q", name)
	}
	if m2.CorpusLen() != 1 || m2.CorpusKeyHashes()[0] != progHash(prog) {
		t.Errorf("imported corpus = %v", m2.CorpusKeyHashes())
	}
	if titles := m2.ReportTitles(); len(titles) != 1 || titles[0] != "exported finding" {
		t.Errorf("imported reports = %v", titles)
	}
	if m2.ShardsCompleted() != 1 {
		t.Errorf("imported completed shards = %d, want 1", m2.ShardsCompleted())
	}
	if got := m2.Epoch(); got != 2 {
		t.Errorf("imported epoch = %d, want snapshot epoch + 1 = 2", got)
	}
	// The import's token now guards the campaign.
	srv := httptestServer(t, m2)
	err = postJSON(srv.Client(), srv.URL+PathRegister, RegisterRequest{V: ProtocolVersion}, nil)
	if errStatus(err) != 403 {
		t.Errorf("tokenless register after import: %v, want HTTP 403", err)
	}
	if err := postJSON(srv.Client(), srv.URL+PathRegister, RegisterRequest{
		V: ProtocolVersion, Token: "newtok",
	}, nil); err != nil {
		t.Errorf("tokened register after import: %v", err)
	}
}

// TestImportReplacesStaleDiskState: importing into a durable campaign
// whose WAL is detached (a disk-full degrade) must not restore the stale
// on-disk snapshot/WAL over the imported state — the import wins, both
// in memory and across a restart.
func TestImportReplacesStaleDiskState(t *testing.T) {
	// Source manager accumulates the state to migrate.
	src, err := NewManager(fastManagerConfig(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	imported := testProgram(t, "r0 = wq_create()\nwq_post_notification(r0, 0x4)\n")
	src.mu.Lock()
	cs := src.camps[DefaultCampaign]
	cs.admitProgramLocked(imported, true)
	cs.admitReportLocked(&report.Report{Title: "imported finding"}, true)
	cs.shards[0].completed = true
	cs.completed++
	src.mu.Unlock()
	var buf bytes.Buffer
	if err := src.ExportCampaign(DefaultCampaign, &buf); err != nil {
		t.Fatal(err)
	}

	// Destination: durable, with its own (soon stale) journaled state,
	// then degraded to in-memory operation — the wal == nil posture.
	cfg := durableConfig(t, 20, 10)
	m, _ := startManager(t, cfg)
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	c.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	_ = c.wal.close()
	c.wal = nil
	m.mu.Unlock()

	if _, err := m.ImportCampaign(bytes.NewReader(buf.Bytes()), "tok"); err != nil {
		t.Fatal(err)
	}
	if hashes := m.CorpusKeyHashes(); len(hashes) != 1 || hashes[0] != progHash(imported) {
		t.Errorf("corpus after import = %v, want only the imported program", hashes)
	}
	if m.ShardsCompleted() != 1 {
		t.Errorf("completed shards after import = %d, want 1", m.ShardsCompleted())
	}

	// A restart over the same state dir restores the imported state, not
	// the pre-import snapshot or the orphaned WAL records.
	m2, _ := startManager(t, cfg)
	if hashes := m2.CorpusKeyHashes(); len(hashes) != 1 || hashes[0] != progHash(imported) {
		t.Errorf("restarted corpus = %v, want only the imported program", hashes)
	}
	if m2.ShardsCompleted() != 1 {
		t.Errorf("restarted completed shards = %d, want 1", m2.ShardsCompleted())
	}
	if titles := m2.ReportTitles(); len(titles) != 1 || titles[0] != "imported finding" {
		t.Errorf("restarted reports = %v, want only the imported finding", titles)
	}
}
