package dist

import (
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

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
	if poll.Lease == nil {
		t.Fatal("no lease granted")
	}
	// Run the first leased shard for real (as a worker would) and ship its
	// corpus plus one injected marker program and its findings plus one
	// injected marker report on the poll that acks the completion — the
	// same message a real worker sends, so nothing acked is ever missing.
	lease := poll.Lease
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
	marker := &report.Report{Title: "KCSAN: data-race in restart_test"}
	if err := postJSON(client, srv1.URL+PathPoll, PollRequest{
		V: ProtocolVersion, WorkerID: reg.WorkerID, Epoch: reg.Epoch,
		Completed: lease.ID, Programs: payload.String(),
		Reports: append(pool.Reports.All(), marker),
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

// TestCompletingPollJournalsResultsFirst: a completing poll against a
// durable manager journals the shard's program and report records before
// its complete record, so a crash between them can lose the completion
// (the shard re-runs) but never the results of a completed shard.
func TestCompletingPollJournalsResultsFirst(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	cfg.HeartbeatEvery = time.Hour // keep the hand-driven worker alive
	_, srv := startManager(t, cfg)
	reg, lease := registerAndLease(t, srv)
	req := completingPoll(reg, lease)
	req.Reports = append(req.Reports, &report.Report{Title: "KCSAN: data-race in wal_order_test"})
	if err := postJSON(srv.Client(), srv.URL+PathPoll, req, nil); err != nil {
		t.Fatal(err)
	}

	var types []string
	if _, _, err := replayWAL(walPath(cfg.StateDir), func(typ string, _ json.RawMessage) {
		types = append(types, typ)
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, typ := range types {
		if typ == walComplete && (seen[walProgram] == 0 || seen[walReport] == 0) {
			t.Fatalf("complete record before the shard's results: %v", types)
		}
		seen[typ]++
	}
	if seen[walComplete] != 1 {
		t.Errorf("WAL holds %d complete records, want 1: %v", seen[walComplete], types)
	}
	if types[len(types)-1] != walComplete {
		t.Errorf("WAL does not end with the completion: %v", types)
	}
}

// TestWALTornRecord: a crash mid-append leaves a torn final record; the
// restarted manager truncates it and resumes from the last intact state
// instead of erroring out.
func TestWALTornRecord(t *testing.T) {
	cfg := durableConfig(t, 40, 10)
	m1, _ := startManager(t, cfg)
	m1.mu.Lock()
	m1.admitProgramLocked(testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n"), true)
	m1.admitReportLocked(&report.Report{Title: "torn-test finding"}, true)
	m1.mu.Unlock()

	// Tear the tail: a record whose line was cut mid-write.
	wal := walPath(cfg.StateDir)
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
	m1.admitProgramLocked(
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
	wal := walPath(cfg.StateDir)
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
	m2.admitProgramLocked(
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
// before the first periodic compaction must restore the snapshot's shard
// plan (not a zero-shard husk, and not a plan re-derived from changed
// flags) and keep the completions journaled meanwhile.
func TestRestartBeforeFirstSnapshotKeepsPlan(t *testing.T) {
	cfg := durableConfig(t, 20, 10)
	cfg.Seed = 5
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.mu.Lock()
	id, _ := m1.registerLocked("w", 0)
	lease := m1.grantLocked(m1.workers[id])
	if lease == nil {
		m1.mu.Unlock()
		t.Fatal("no lease granted")
	}
	m1.completeLocked(m1.workers[id], lease.ID)
	m1.mu.Unlock()

	// Crash (no Close, so no shutdown compaction) and restart with a
	// different step budget.
	cfg.TotalSteps = 100
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	shards, completed := len(m2.shards), m2.completed
	total, seed := m2.cfg.TotalSteps, m2.cfg.Seed
	done := m2.doneLocked()
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

// TestWALOnlyStateResumesConfiguredPlan: a state directory holding only
// a WAL (no snapshot) has no plan of its own. It resumes under the
// configured plan, keeps the WAL-replayed corpus, and persists that plan
// so a further restart with changed flags restores it.
func TestWALOnlyStateResumesConfiguredPlan(t *testing.T) {
	cfg := durableConfig(t, 20, 10)
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := testProgram(t, "r0 = wq_create()\nwq_pipe_read(r0)\n")
	m1.mu.Lock()
	m1.admitProgramLocked(prog, true)
	m1.mu.Unlock()
	if err := os.Remove(snapshotPath(cfg.StateDir)); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ShardsTotal() != 2 {
		t.Errorf("WAL-only state resumed with %d shards, want the configured 2-shard plan", m2.ShardsTotal())
	}
	if m2.CorpusLen() != 1 {
		t.Errorf("WAL-only resume lost the replayed corpus: %d programs, want 1", m2.CorpusLen())
	}
	if m2.Epoch() != 2 {
		t.Errorf("WAL-only resume epoch = %d, want 2", m2.Epoch())
	}

	cfg.TotalSteps = 100
	m3, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3.ShardsTotal() != 2 || m3.CorpusLen() != 1 {
		t.Errorf("restart after WAL-only resume: %d shards, %d programs; want the persisted 2 and 1",
			m3.ShardsTotal(), m3.CorpusLen())
	}
}

// TestResumeVersion2StateDir: testdata/state-v2 was written by a
// protocol-version-2 manager that hosted a second campaign next to the
// default one. It resumes: the snapshot's plan, the WAL-replayed shard
// completions, corpus and report come back under the next epoch, and the
// other campaign's subdirectory is ignored and left untouched.
func TestResumeVersion2StateDir(t *testing.T) {
	src := filepath.Join("testdata", "state-v2")
	dir := t.TempDir()
	for _, f := range []string{"default/snapshot.json", "default/wal.log", "extra/snapshot.json", "extra/wal.log"} {
		b, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fastManagerConfig(40, 10) // the snapshot's 2000/100 plan wins
	cfg.StateDir = dir
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 2 {
		t.Errorf("resumed epoch = %d, want 2", got)
	}
	if total, done := m.ShardsTotal(), m.ShardsCompleted(); total != 20 || done != 4 {
		t.Errorf("resumed %d of %d shards completed, want 4 of 20", done, total)
	}
	if got := m.CorpusLen(); got != 9 {
		t.Errorf("resumed corpus has %d programs, want 9", got)
	}
	want := "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
	if titles := m.ReportTitles(); len(titles) != 1 || titles[0] != want {
		t.Errorf("resumed reports = %v, want [%s]", titles, want)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"extra/snapshot.json", "extra/wal.log"} {
		orig, _ := os.ReadFile(filepath.Join(src, f))
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || string(got) != string(orig) {
			t.Errorf("%s changed by the resume (err %v)", f, err)
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "extra")); len(entries) != 2 {
		t.Errorf("extra/ holds %d entries after the resume, want its 2 files", len(entries))
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
	id, _ := m.registerLocked("w", 0)
	ws := m.workers[id]
	granted := m.grantLocked(ws)
	m.mu.Unlock()
	if granted == nil {
		t.Fatal("granted no lease, want 1")
	}

	now = base.Add(cfg.LeaseTTL) // exactly at the boundary
	m.mu.Lock()
	ws.lastSeen = now
	m.mu.Unlock()
	m.sweep()
	m.mu.Lock()
	inflight, pending := len(m.inflight), len(m.pending)
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
	inflight, pending = len(m.inflight), len(m.pending)
	m.mu.Unlock()
	if inflight != 0 || pending != 1 {
		t.Fatalf("past TTL: inflight=%d pending=%d, want the shard requeued", inflight, pending)
	}
	if got := m.do.leaseReassigns.Value(); got != 1 {
		t.Errorf("lease_reassignments_total = %d, want 1", got)
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
	if poll.Lease == nil {
		t.Fatal("granted no lease, want 1")
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
	if poll2.Lease == nil || poll2.Lease.Shard != poll.Lease.Shard {
		t.Fatalf("re-registered worker polls %+v, want the eagerly released shard %d",
			poll2.Lease, poll.Lease.Shard)
	}
	if poll2.Lease.ID == poll.Lease.ID {
		t.Error("released shard re-granted under the same lease ID")
	}
}

// TestProtocolNegotiation: the manager answers at ProtocolVersion and
// rejects every other version — the retired versions 1, 2 and 3
// included — with HTTP 400 on register and poll.
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
	for _, v := range []int{0, 1, 2, 3, ProtocolVersion + 1} {
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
