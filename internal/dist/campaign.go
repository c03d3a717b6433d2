package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// snapshotEvery is how many WAL records trigger a compaction.
const snapshotEvery = 256

// workerState is the manager's view of one registered worker.
type workerState struct {
	id        int
	name      string
	lastSeen  time.Time
	connected bool
}

// shardState tracks one shard through grants, reassignments, and
// completion.
type shardState struct {
	shard     Shard
	completed bool
}

// leaseState is one outstanding grant.
type leaseState struct {
	id     uint64
	shard  int
	worker int
	expiry time.Time
}

// The methods below are the campaign's state machine: the shard frontier,
// worker and lease tables, merged corpus, deduplicated report set, the
// registration epoch, and the write-ahead log. The Locked suffix means
// the caller holds m.mu.

// rebuildPlanLocked derives the shard plan from the campaign config and
// queues every incomplete shard.
func (m *Manager) rebuildPlanLocked() {
	m.shards, m.pending = nil, nil
	for _, sh := range Shards(m.cfg.Seed, m.cfg.TotalSteps, m.cfg.ShardSteps) {
		m.shards = append(m.shards, &shardState{shard: sh})
		m.pending = append(m.pending, sh.Index)
	}
	m.completed = 0
}

// requeueIncompleteLocked rebuilds the pending queue as every shard not
// yet completed, in index order — the recovery posture: leases are not
// journaled, and shard execution is deterministic, so re-running work a
// pre-crash lease may still be chewing on is a harmless duplicate.
func (m *Manager) requeueIncompleteLocked() {
	m.pending = m.pending[:0]
	for _, st := range m.shards {
		if !st.completed {
			m.pending = append(m.pending, st.shard.Index)
		}
	}
}

// connectedLocked counts live workers.
func (m *Manager) connectedLocked() int {
	n := 0
	for _, ws := range m.workers {
		if ws.connected {
			n++
		}
	}
	return n
}

// doneLocked reports whether every shard has completed.
func (m *Manager) doneLocked() bool { return m.completed == len(m.shards) }

// journalLocked appends one WAL record, degrading the campaign to
// in-memory operation (with a warning event) if the append fails — a
// full disk must not take down fleet traffic.
func (m *Manager) journalLocked(t string, payload any) {
	if m.wal == nil {
		return
	}
	if err := m.wal.append(t, payload); err != nil {
		m.do.ev.Warn(0, "dist.wal.error", map[string]any{"err": err.Error()})
		_ = m.wal.close()
		m.wal = nil
		return
	}
	if m.wal.records >= snapshotEvery {
		m.snapshotLocked()
	}
}

// registerLocked admits a worker, journals it, and — the re-register
// handshake — eagerly releases any lease still held by the worker's
// previous incarnation instead of letting it sit out the TTL sweep.
// It returns the new worker ID and the shard indexes requeued from the
// previous incarnation.
func (m *Manager) registerLocked(name string, prevWorker int) (int, []int) {
	m.nextWorker++
	id := m.nextWorker
	m.workers[id] = &workerState{id: id, name: name, lastSeen: m.now(), connected: true}
	m.journalLocked(walWorker, walWorkerD{ID: id, Name: name})
	var requeued []int
	if pw := m.workers[prevWorker]; pw != nil && prevWorker != id {
		pw.connected = false
		requeued = m.releaseLocked(prevWorker)
	}
	return id, requeued
}

// releaseLocked drops every in-flight lease held by worker and requeues
// its incomplete shards, returning their indexes.
func (m *Manager) releaseLocked(worker int) []int {
	var requeued []int
	for id, ls := range m.inflight {
		if ls.worker != worker {
			continue
		}
		delete(m.inflight, id)
		if !m.shards[ls.shard].completed {
			m.pending = append(m.pending, ls.shard)
			m.do.leaseReassigns.Inc()
			requeued = append(requeued, ls.shard)
		}
	}
	return requeued
}

// touchLocked refreshes a worker's liveness. Returns nil for unknown or
// dead workers.
func (m *Manager) touchLocked(id int) *workerState {
	ws := m.workers[id]
	if ws == nil || !ws.connected {
		return nil
	}
	ws.lastSeen = m.now()
	return ws
}

// grantLocked leases the next pending shard to ws, or returns nil when
// none is pending. Lease IDs embed the epoch (epoch<<32 | sequence) so a
// restarted manager can never re-mint an ID some surviving worker still
// holds from before the crash.
func (m *Manager) grantLocked(ws *workerState) *Lease {
	if len(m.pending) == 0 {
		return nil
	}
	idx := m.pending[0]
	m.pending = m.pending[1:]
	m.nextLease++
	id := m.epoch<<32 | m.nextLease
	m.inflight[id] = &leaseState{
		id: id, shard: idx, worker: ws.id, expiry: m.now().Add(m.cfg.LeaseTTL),
	}
	m.leaseByID[id] = idx
	sh := m.shards[idx].shard
	m.do.leasesGranted.Inc()
	return &Lease{
		ID: id, Shard: sh.Index, Seed: sh.Seed, Steps: sh.Steps,
		TTLMS: m.cfg.LeaseTTL.Milliseconds(),
	}
}

// completeLocked marks a lease's shard done. Stale lease IDs (already
// reassigned, or granted by a pre-restart epoch) still complete their
// shard when known — the shard result is deterministic, so whoever
// finishes first wins and the rerun is a harmless duplicate; IDs from
// before the last restart are simply unknown and ignored.
func (m *Manager) completeLocked(ws *workerState, leaseID uint64) {
	idx, ok := m.leaseByID[leaseID]
	if !ok {
		return
	}
	delete(m.inflight, leaseID)
	st := m.shards[idx]
	if st.completed {
		return
	}
	st.completed = true
	m.completed++
	m.do.leasesCompleted.Inc()
	m.journalLocked(walComplete, walCompleteD{Shard: idx})
	// The shard may have been requeued (expiry raced completion): drop it
	// from pending, and retire any other in-flight lease on it.
	for i, p := range m.pending {
		if p == idx {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	for id, ls := range m.inflight {
		if ls.shard == idx {
			delete(m.inflight, id)
		}
	}
	m.do.ev.Info(ws.id, "dist.lease_complete", map[string]any{
		"lease": leaseID, "shard": idx, "done": m.completed, "total": len(m.shards),
	})
}

// progHash keys the manager's corpus: Program.Hash in hex, at most 16
// bytes per program instead of its key text.
func progHash(p *syzlang.Program) string {
	var key []byte
	return strconv.FormatUint(p.Hash(&key), 16)
}

// admitProgramLocked merges one program into the campaign corpus,
// journaling genuinely new admissions. Reports whether it was new.
func (m *Manager) admitProgramLocked(p *syzlang.Program, journal bool) bool {
	h := progHash(p)
	if _, dup := m.corpus[h]; dup {
		return false
	}
	m.corpus[h] = p
	m.corpusOrder = append(m.corpusOrder, h)
	if journal {
		m.journalLocked(walProgram, walProgramD{Src: p.String()})
	}
	return true
}

// admitReportLocked merges one finding into the global deduplicated set,
// journaling new titles. Reports whether it was new.
func (m *Manager) admitReportLocked(r *report.Report, journal bool) bool {
	if !m.reports.Add(r) {
		return false
	}
	if journal {
		m.journalLocked(walReport, r)
	}
	return true
}

// buildSnapshotLocked builds the campaign's snapshot.
func (m *Manager) buildSnapshotLocked() *CampaignSnapshot {
	snap := &CampaignSnapshot{
		Format: SnapshotFormat, Name: defaultCampaign, Epoch: m.epoch,
		Spec:       m.cfg.Campaign,
		TotalSteps: m.cfg.TotalSteps, ShardSteps: m.cfg.ShardSteps, Seed: m.cfg.Seed,
		NextWorker: m.nextWorker,
		Reports:    m.reports.All(),
	}
	for _, st := range m.shards {
		if st.completed {
			snap.Completed = append(snap.Completed, st.shard.Index)
		}
	}
	var ids []int
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		snap.Workers = append(snap.Workers, SnapshotWorker{ID: id, Name: m.workers[id].name})
	}
	var sb strings.Builder
	_ = core.EncodePrograms(&sb, m.corpusLocked())
	snap.Corpus = sb.String()
	return snap
}

// corpusLocked returns the merged corpus in first-seen order.
func (m *Manager) corpusLocked() []*syzlang.Program {
	progs := make([]*syzlang.Program, 0, len(m.corpusOrder))
	for _, h := range m.corpusOrder {
		progs = append(progs, m.corpus[h])
	}
	return progs
}

// snapshotLocked compacts the campaign's durable state: write the
// snapshot atomically, then reset the WAL.
func (m *Manager) snapshotLocked() {
	if m.wal == nil {
		return
	}
	snap := m.buildSnapshotLocked()
	if err := writeSnapshotFile(snapshotPath(m.cfg.StateDir), snap); err != nil {
		m.do.ev.Warn(0, "dist.wal.error", map[string]any{"err": err.Error()})
		return
	}
	records := m.wal.records
	if err := m.wal.reset(); err != nil {
		m.do.ev.Warn(0, "dist.wal.error", map[string]any{"err": err.Error()})
		_ = m.wal.close()
		m.wal = nil
		return
	}
	m.do.walSnaps.Inc()
	m.do.ev.Info(0, "dist.wal.snapshot", map[string]any{
		"compacted_records": records,
		"corpus":            len(m.corpusOrder), "reports": m.reports.Len(),
		"completed": m.completed,
	})
}

// restoreSnapshotLocked loads a snapshot's state into the campaign,
// replacing the in-memory plan and merged state. The snapshot's plan
// parameters win over the configured ones: resume must not re-shard a
// half-finished campaign because a flag changed.
func (m *Manager) restoreSnapshotLocked(snap *CampaignSnapshot) {
	m.cfg.Campaign = snap.Spec
	m.cfg.TotalSteps, m.cfg.ShardSteps, m.cfg.Seed = snap.TotalSteps, snap.ShardSteps, snap.Seed
	m.cfg.normalize()
	m.target = modules.Target(snap.Spec.Modules...)
	m.epoch = snap.Epoch
	m.rebuildPlanLocked()
	for _, idx := range snap.Completed {
		if idx >= 0 && idx < len(m.shards) && !m.shards[idx].completed {
			m.shards[idx].completed = true
			m.completed++
		}
	}
	m.nextWorker = snap.NextWorker
	for _, sw := range snap.Workers {
		m.workers[sw.ID] = &workerState{id: sw.ID, name: sw.Name}
		if sw.ID > m.nextWorker {
			m.nextWorker = sw.ID
		}
	}
	if snap.Corpus != "" {
		progs, _ := core.DecodePrograms(strings.NewReader(snap.Corpus), m.target)
		for _, p := range progs {
			m.admitProgramLocked(p, false)
		}
	}
	for _, r := range snap.Reports {
		if r != nil && r.Title != "" {
			m.admitReportLocked(r, false)
		}
	}
}

// applyWALLocked applies one replayed WAL record.
func (m *Manager) applyWALLocked(t string, d json.RawMessage) {
	switch t {
	case walEpoch:
		var rec walEpochD
		if json.Unmarshal(d, &rec) == nil && rec.Epoch > m.epoch {
			m.epoch = rec.Epoch
		}
	case walWorker:
		var rec walWorkerD
		if json.Unmarshal(d, &rec) == nil && rec.ID > 0 {
			m.workers[rec.ID] = &workerState{id: rec.ID, name: rec.Name}
			if rec.ID > m.nextWorker {
				m.nextWorker = rec.ID
			}
		}
	case walComplete:
		var rec walCompleteD
		if json.Unmarshal(d, &rec) == nil &&
			rec.Shard >= 0 && rec.Shard < len(m.shards) && !m.shards[rec.Shard].completed {
			m.shards[rec.Shard].completed = true
			m.completed++
		}
	case walProgram:
		var rec walProgramD
		if json.Unmarshal(d, &rec) == nil {
			if p, err := m.target.Parse(rec.Src); err == nil && len(p.Calls) > 0 {
				m.admitProgramLocked(p, false)
			}
		}
	case walReport:
		var rec report.Report
		if json.Unmarshal(d, &rec) == nil && rec.Title != "" {
			m.admitReportLocked(&rec, false)
		}
	}
}

// openStateLocked attaches the campaign to the state directory: restore
// the latest snapshot, replay the WAL over it (truncating a torn tail),
// bump the epoch, requeue incomplete shards, and open the log for
// appending. A campaign that restored anything counts one WAL replay.
func (m *Manager) openStateLocked() error {
	if err := os.MkdirAll(filepath.Join(m.cfg.StateDir, defaultCampaign), 0o755); err != nil {
		return fmt.Errorf("dist: campaign state dir: %w", err)
	}
	snap, err := readSnapshotFile(snapshotPath(m.cfg.StateDir))
	if err != nil {
		return err
	}
	if snap != nil {
		m.restoreSnapshotLocked(snap)
	}
	replayed, torn, err := replayWAL(walPath(m.cfg.StateDir), m.applyWALLocked)
	if err != nil {
		return err
	}
	resumed := snap != nil || replayed > 0
	if resumed {
		m.do.walReplays.Inc()
		m.do.walReplayed.Add(uint64(replayed))
		if torn > 0 {
			m.do.walTorn.Inc()
		}
		m.epoch++
		m.requeueIncompleteLocked()
		for _, ws := range m.workers {
			ws.connected = false
		}
		m.do.ev.Info(0, "dist.wal.replay", map[string]any{
			"snapshot": snap != nil,
			"records":  replayed, "torn_bytes": torn, "epoch": m.epoch,
			"completed": m.completed, "corpus": len(m.corpusOrder),
			"reports": m.reports.Len(),
		})
	}
	w, err := openWAL(walPath(m.cfg.StateDir), m.do)
	if err != nil {
		return err
	}
	m.wal = w
	m.journalLocked(walEpoch, walEpochD{Epoch: m.epoch})
	if snap == nil {
		// The plan parameters (spec, total/shard steps, seed) live only in
		// snapshots, so persist them whenever none was restored — on first
		// open and on a WAL-only directory, which resumes under the
		// configured plan. Without one, a crash before the first periodic
		// compaction would restore the campaign from a bare WAL as a
		// zero-shard husk (instantly "done") and drop every completion
		// record it had journaled.
		m.snapshotLocked()
	}
	return nil
}
