package dist

import (
	"crypto/subtle"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"ozz/internal/core"
	"ozz/internal/memmodel"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// Shard is one deterministic work unit of the campaign plan: an
// independent pool campaign of Steps steps under the derived Seed. The
// union of all shards' findings is the campaign's result, independent of
// which worker runs which shard.
type Shard struct {
	// Index is the shard's position in the plan.
	Index int
	// Seed is the shard's derived campaign seed.
	Seed int64
	// Steps is the shard's step budget.
	Steps int
}

// shardSeed derives shard i's campaign seed from the base seed with the
// splitmix64 finalizer — the same mixing discipline core.Pool uses for
// per-step streams, so sibling shards draw statistically independent
// program sequences.
func shardSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Shards builds the deterministic shard plan covering totalSteps in
// shardSteps-sized units (the last shard takes the remainder). The plan is
// a pure function of its arguments — the manager and RunShardsLocal
// compute identical plans.
func Shards(seed int64, totalSteps, shardSteps int) []Shard {
	if totalSteps <= 0 {
		return nil
	}
	if shardSteps <= 0 || shardSteps > totalSteps {
		shardSteps = totalSteps
	}
	var plan []Shard
	for i, done := 0, 0; done < totalSteps; i++ {
		steps := shardSteps
		if totalSteps-done < steps {
			steps = totalSteps - done
		}
		plan = append(plan, Shard{Index: i, Seed: shardSeed(seed, i), Steps: steps})
		done += steps
	}
	return plan
}

// coreConfig reconstructs the core campaign configuration for one shard.
func coreConfig(spec CampaignSpec, seed int64, reg *obs.Registry, ev *obs.EventLog) core.Config {
	// An empty or unknown model name falls back to LKMM rather than
	// failing the shard: a mixed fleet where one side predates a model
	// should degrade to the default, not wedge the campaign.
	mm, err := memmodel.ByName(spec.Model)
	if spec.Model == "" || err != nil {
		mm = memmodel.LKMM
	}
	return core.Config{
		Modules:  spec.Modules,
		Bugs:     modules.Bugs(spec.Bugs...),
		Seed:     seed,
		UseSeeds: spec.UseSeeds,
		Model:    mm,
		Obs:      reg,
		Events:   ev,
	}
}

// ManagerConfig parameterizes the fabric manager and its one campaign.
type ManagerConfig struct {
	// Campaign is the campaign configuration shipped to workers.
	Campaign CampaignSpec
	// TotalSteps is the campaign's step budget across all shards.
	TotalSteps int
	// ShardSteps is the per-lease step budget (default 64).
	ShardSteps int
	// Seed is the base campaign seed the shard seeds derive from.
	Seed int64
	// Token, when non-empty, is the auth token every request must carry;
	// a request without it is rejected with HTTP 403. Tokens are
	// configuration, never persisted.
	Token string
	// LeaseTTL is how long a granted lease lives without renewal
	// (default 5s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the heartbeat cadence told to workers
	// (default 1s); a worker silent for 3 cadences is declared dead.
	HeartbeatEvery time.Duration
	// StateDir, when non-empty, makes the campaign durable: state is
	// journaled to <StateDir>/default/wal.log, compacted into
	// snapshot.json, and restored (with an epoch bump) on the next
	// NewManager over the same directory.
	StateDir string
	// Obs, when non-nil, is the registry the manager publishes fabric
	// metrics into; nil gives it a fresh private registry.
	Obs *obs.Registry
	// Events, when non-nil, receives the manager's dist.* event stream,
	// tagged with the registered worker IDs.
	Events *obs.EventLog
}

// heartbeatMisses is how many missed heartbeat cadences mark a worker
// dead.
const heartbeatMisses = 3

// normalize resolves the manager defaults.
func (c *ManagerConfig) normalize() {
	if c.ShardSteps <= 0 {
		c.ShardSteps = 64
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
}

// Manager hosts one campaign: its shard frontier, merged coverage corpus
// (keyed by program-key hash), globally deduplicated report set,
// worker/lease tables, and registration epoch; with a state directory
// configured the campaign is also journaled to a write-ahead log and
// restored on restart. All methods and HTTP handlers are safe for
// concurrent use.
type Manager struct {
	cfg ManagerConfig
	do  *distObs

	// now is stubbed in tests; defaults to time.Now.
	now func() time.Time

	// mu guards every field below it.
	mu     sync.Mutex
	target *syzlang.Target

	// epoch is the registration epoch: 1 on a fresh campaign, +1 on
	// every recovery from persistent state. Lease IDs embed it
	// (epoch<<32 | sequence) so IDs never collide across restarts.
	epoch uint64

	workers     map[int]*workerState
	nextWorker  int
	shards      []*shardState
	pending     []int // shard indexes awaiting a worker, FIFO
	inflight    map[uint64]*leaseState
	leaseByID   map[uint64]int // every lease ever granted -> shard index
	nextLease   uint64         // per-epoch lease sequence
	completed   int
	doneEmitted bool

	corpus      map[string]*syzlang.Program // key hash -> program
	corpusOrder []string                    // key hashes in first-seen order
	reports     *report.Set

	// wal is the open write-ahead log, nil for in-memory campaigns (no
	// state directory) and after an append failure degraded the campaign
	// back to in-memory operation.
	wal *wal
}

// NewManager builds a fabric manager for the configured campaign. With
// StateDir set it restores the campaign from the directory, replaying
// snapshot+WAL and bumping the epoch so surviving workers re-register. It
// does not listen; mount Handler on an http.Server.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	cfg.normalize()
	m := &Manager{
		cfg:       cfg,
		do:        newDistObs(cfg.Obs, cfg.Events),
		target:    modules.Target(cfg.Campaign.Modules...),
		epoch:     1,
		workers:   make(map[int]*workerState),
		inflight:  make(map[uint64]*leaseState),
		leaseByID: make(map[uint64]int),
		corpus:    make(map[string]*syzlang.Program),
		reports:   report.NewSet(),
		now:       time.Now,
	}
	m.rebuildPlanLocked()
	if cfg.StateDir != "" {
		if err := m.openStateLocked(); err != nil {
			return nil, err
		}
	}
	m.do.campaignEpoch.Set(float64(m.epoch))
	m.setGaugesLocked()
	return m, nil
}

// Close snapshots and closes a durable campaign's WAL. A manager that is
// not durable ignores Close.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	m.snapshotLocked()
	if m.wal == nil {
		return nil
	}
	err := m.wal.close()
	m.wal = nil
	return err
}

// Obs returns the registry the manager publishes fabric metrics into.
func (m *Manager) Obs() *obs.Registry { return m.do.reg }

// Done reports whether every shard has completed.
func (m *Manager) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.doneLocked()
}

// Epoch returns the campaign's registration epoch (1 on a fresh campaign,
// +1 per restore).
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// WorkersConnected returns the number of currently registered workers.
func (m *Manager) WorkersConnected() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.connectedLocked()
}

// ShardsCompleted returns how many shards have finished.
func (m *Manager) ShardsCompleted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completed
}

// ShardsTotal returns the shard plan size.
func (m *Manager) ShardsTotal() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shards)
}

// WorkersSeen returns how many workers ever registered (including ones
// that since deregistered or died).
func (m *Manager) WorkersSeen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextWorker
}

// Reports returns the globally deduplicated findings in first-seen order.
func (m *Manager) Reports() []*report.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports.All()
}

// ReportTitles returns the sorted unique crash titles.
func (m *Manager) ReportTitles() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports.Titles()
}

// CorpusLen returns the merged global corpus size.
func (m *Manager) CorpusLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.corpusOrder)
}

// CorpusKeyHashes returns the merged corpus key hashes in first-seen
// order (testing and tooling).
func (m *Manager) CorpusKeyHashes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.corpusOrder...)
}

// WriteCorpus streams the merged global corpus to w in the corpus
// encoding, first-seen order.
func (m *Manager) WriteCorpus(w io.Writer) error {
	m.mu.Lock()
	progs := m.corpusLocked()
	m.mu.Unlock()
	return core.EncodePrograms(w, progs)
}

// Handler returns the manager's HTTP API: the five fabric endpoints plus
// /metrics serving the manager's registry (so one listener covers both
// the fleet and scrapers).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, m.timed(m.do.httpRegister, m.handleRegister))
	mux.HandleFunc(PathPoll, m.timed(m.do.httpPoll, m.handlePoll))
	mux.HandleFunc(PathSync, m.timed(m.do.httpSync, m.handleSync))
	mux.HandleFunc(PathReport, m.timed(m.do.httpReport, m.handleReport))
	mux.HandleFunc(PathHeartbeat, m.timed(m.do.httpHeartbeat, m.handleHeartbeat))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.do.reg.WriteText(w)
	})
	return mux
}

// timed wraps a handler with method enforcement and the per-endpoint
// latency histogram.
func (m *Manager) timed(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		start := time.Now()
		fn(w, r)
		observe(h, start)
	}
}

// checkVersion rejects any protocol version but ProtocolVersion; reports
// whether the request may proceed.
func checkVersion(w http.ResponseWriter, v int) bool {
	if v != ProtocolVersion {
		writeError(w, http.StatusBadRequest,
			"protocol version %d, manager speaks %d", v, ProtocolVersion)
		return false
	}
	return true
}

// authorized checks a request's token against the manager's, writing
// the HTTP 403 reply and returning false on a mismatch.
func (m *Manager) authorized(w http.ResponseWriter, token string) bool {
	if m.cfg.Token != "" && subtle.ConstantTimeCompare([]byte(token), []byte(m.cfg.Token)) != 1 {
		writeError(w, http.StatusForbidden, "bad or missing token")
		return false
	}
	return true
}

// currentEpochLocked checks a request's epoch, writing the HTTP 410
// re-register reply and returning false when it is stale.
func (m *Manager) currentEpochLocked(w http.ResponseWriter, epoch uint64) bool {
	if epoch != m.epoch {
		writeError(w, http.StatusGone, "stale epoch %d (current %d): re-register", epoch, m.epoch)
		return false
	}
	return true
}

// setGaugesLocked refreshes the worker and pending-shard gauges.
func (m *Manager) setGaugesLocked() {
	m.do.workers.Set(float64(m.connectedLocked()))
	m.do.leasesPending.Set(float64(len(m.pending)))
}

// handleRegister admits a worker and ships the campaign spec. A
// re-registration (PrevWorkerID set) eagerly releases the previous
// incarnation's lease instead of letting it block its shard until the
// TTL sweep.
func (m *Manager) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if !checkVersion(w, req.V) || !m.authorized(w, req.Token) {
		return
	}
	m.mu.Lock()
	id, requeued := m.registerLocked(req.Name, req.PrevWorkerID)
	epoch := m.epoch
	spec := m.cfg.Campaign
	m.do.registrations.Inc()
	m.setGaugesLocked()
	m.mu.Unlock()
	m.do.ev.Info(id, "dist.register", map[string]any{
		"name": req.Name, "prev_worker": req.PrevWorkerID, "prev_epoch": req.PrevEpoch,
	})
	for _, shard := range requeued {
		m.do.ev.Warn(req.PrevWorkerID, "dist.lease_reassign", map[string]any{
			"shard": shard, "cause": "re-register",
		})
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		V:           ProtocolVersion,
		WorkerID:    id,
		Epoch:       epoch,
		Campaign:    spec,
		HeartbeatMS: m.cfg.HeartbeatEvery.Milliseconds(),
	})
}

// handlePoll sweeps expired state, acknowledges a completion, and grants
// one lease when a shard is pending.
func (m *Manager) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad poll body: %v", err)
		return
	}
	if !checkVersion(w, req.V) || !m.authorized(w, req.Token) {
		return
	}
	m.sweep()
	m.mu.Lock()
	if !m.currentEpochLocked(w, req.Epoch) {
		m.mu.Unlock()
		return
	}
	ws := m.touchLocked(req.WorkerID)
	if ws == nil {
		m.mu.Unlock()
		writeError(w, http.StatusGone, "unknown worker %d: re-register", req.WorkerID)
		return
	}
	m.completeLocked(ws, req.Completed)
	resp := PollResponse{V: ProtocolVersion}
	if m.doneLocked() {
		resp.Done = true
	} else if resp.Lease = m.grantLocked(ws); resp.Lease == nil {
		resp.RetryMS = (m.cfg.HeartbeatEvery / 2).Milliseconds()
	}
	m.setGaugesLocked()
	m.mu.Unlock()
	if l := resp.Lease; l != nil {
		m.do.ev.Info(req.WorkerID, "dist.lease_grant", map[string]any{
			"lease": l.ID, "shard": l.Shard, "seed": l.Seed, "steps": l.Steps,
		})
	}
	m.maybeEmitDone()
	writeJSON(w, http.StatusOK, resp)
}

// sweep requeues expired leases and declares silent workers dead. It runs
// lazily at the top of every poll/sync/heartbeat, so liveness advances as
// long as any worker keeps talking; tests may call it directly.
func (m *Manager) sweep() {
	var (
		dead     []int
		res      []*leaseState
		deadline = heartbeatMisses * m.cfg.HeartbeatEvery
	)
	m.mu.Lock()
	now := m.now()
	for id, ws := range m.workers {
		if ws.connected && now.Sub(ws.lastSeen) > deadline {
			ws.connected = false
			dead = append(dead, id)
			m.do.heartbeatMisses.Inc()
		}
	}
	for id, ls := range m.inflight {
		owner := m.workers[ls.worker]
		if now.After(ls.expiry) || owner == nil || !owner.connected {
			delete(m.inflight, id)
			if !m.shards[ls.shard].completed {
				m.pending = append(m.pending, ls.shard)
				m.do.leaseReassigns.Inc()
				res = append(res, ls)
			}
		}
	}
	m.setGaugesLocked()
	m.mu.Unlock()
	for _, id := range dead {
		m.do.ev.Warn(id, "dist.worker_dead", map[string]any{
			"deadline_ms": deadline.Milliseconds(),
		})
	}
	for _, ls := range res {
		m.do.ev.Warn(ls.worker, "dist.lease_reassign", map[string]any{
			"lease": ls.id, "shard": ls.shard, "cause": "expired",
		})
	}
}

// maybeEmitDone emits the dist.done event exactly once, when the last
// shard completes, and compacts a durable campaign's final state.
func (m *Manager) maybeEmitDone() {
	m.mu.Lock()
	fire := m.doneLocked() && !m.doneEmitted
	if fire {
		m.doneEmitted = true
		m.snapshotLocked()
	}
	shards, reports, corpus := len(m.shards), m.reports.Len(), len(m.corpusOrder)
	m.mu.Unlock()
	if fire {
		m.do.ev.Info(0, "dist.done", map[string]any{
			"shards": shards, "reports": reports, "corpus": corpus,
		})
	}
}

// handleSync performs one delta round of corpus exchange and handles
// deregistration.
func (m *Manager) handleSync(w http.ResponseWriter, r *http.Request) {
	var req SyncRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad sync body: %v", err)
		return
	}
	if !checkVersion(w, req.V) || !m.authorized(w, req.Token) {
		return
	}
	m.sweep()
	m.mu.Lock()
	if !m.currentEpochLocked(w, req.Epoch) {
		m.mu.Unlock()
		return
	}
	ws := m.touchLocked(req.WorkerID)
	if ws == nil && !req.Deregister {
		m.mu.Unlock()
		writeError(w, http.StatusGone, "unknown worker %d: re-register", req.WorkerID)
		return
	}
	// Merge the program bodies the worker shipped (ones we asked for, but
	// validate and dedup regardless of what arrived).
	recvProgs := 0
	if req.Programs != "" {
		progs, _ := core.DecodePrograms(strings.NewReader(req.Programs), m.target)
		for _, p := range progs {
			if m.admitProgramLocked(p, true) {
				recvProgs++
			}
		}
		m.do.syncBytesIn.Add(uint64(len(req.Programs)))
		m.do.syncProgsIn.Add(uint64(recvProgs))
		m.do.corpusProgs.Set(float64(len(m.corpusOrder)))
	}
	// Diff the worker's advertisement against the global corpus.
	workerHas := make(map[string]struct{}, len(req.Keys))
	for _, k := range req.Keys {
		workerHas[k] = struct{}{}
	}
	var want []string
	for _, k := range req.Keys {
		if _, ok := m.corpus[k]; !ok {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	var toSend []*syzlang.Program
	for _, h := range m.corpusOrder {
		if _, ok := workerHas[h]; !ok {
			toSend = append(toSend, m.corpus[h])
		}
	}
	var payload strings.Builder
	if len(toSend) > 0 {
		_ = core.EncodePrograms(&payload, toSend)
		m.do.syncBytesOut.Add(uint64(payload.Len()))
		m.do.syncProgsOut.Add(uint64(len(toSend)))
	}
	if req.Deregister && ws != nil {
		ws.connected = false
		m.releaseLocked(ws.id)
	}
	m.setGaugesLocked()
	m.mu.Unlock()
	m.do.ev.Info(req.WorkerID, "dist.sync", map[string]any{
		"recv_programs": recvProgs, "sent_programs": len(toSend),
		"recv_bytes": len(req.Programs), "sent_bytes": payload.Len(),
		"want": len(want), "deregister": req.Deregister,
	})
	if req.Deregister {
		m.do.ev.Info(req.WorkerID, "dist.deregister", nil)
	}
	writeJSON(w, http.StatusOK, SyncResponse{
		V: ProtocolVersion, Programs: payload.String(), Want: want,
	})
}

// handleReport merges worker findings into the global deduplicated set.
func (m *Manager) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad report body: %v", err)
		return
	}
	if !checkVersion(w, req.V) || !m.authorized(w, req.Token) {
		return
	}
	m.mu.Lock()
	if !m.currentEpochLocked(w, req.Epoch) {
		m.mu.Unlock()
		return
	}
	if ws := m.touchLocked(req.WorkerID); ws == nil {
		m.mu.Unlock()
		writeError(w, http.StatusGone, "unknown worker %d: re-register", req.WorkerID)
		return
	}
	added := 0
	for _, rep := range req.Reports {
		if rep != nil && rep.Title != "" && m.admitReportLocked(rep, true) {
			added++
		}
	}
	dup := len(req.Reports) - added
	m.do.reportsNew.Add(uint64(added))
	if dup > 0 {
		m.do.reportsDup.Add(uint64(dup))
	}
	m.mu.Unlock()
	m.do.ev.Info(req.WorkerID, "dist.report", map[string]any{
		"received": len(req.Reports), "added": added,
	})
	writeJSON(w, http.StatusOK, ReportResponse{V: ProtocolVersion, Added: added})
}

// handleHeartbeat renews worker liveness and its lease.
func (m *Manager) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	if !checkVersion(w, req.V) || !m.authorized(w, req.Token) {
		return
	}
	m.sweep()
	m.mu.Lock()
	if !m.currentEpochLocked(w, req.Epoch) {
		m.mu.Unlock()
		return
	}
	ws := m.touchLocked(req.WorkerID)
	ok := ws != nil
	if ls := m.inflight[req.Lease]; ok && ls != nil && ls.worker == ws.id {
		ls.expiry = m.now().Add(m.cfg.LeaseTTL)
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, HeartbeatResponse{V: ProtocolVersion, OK: ok})
}

// RunShardsLocal executes the manager configuration's whole shard plan
// sequentially in-process — the standalone-equivalent campaign the
// distributed fabric must match title-for-title. It returns the merged
// deduplicated report set and the merged corpus (first-seen order,
// deduplicated by program key).
func RunShardsLocal(cfg ManagerConfig, poolWorkers int) (*report.Set, []*syzlang.Program) {
	cfg.normalize()
	merged := report.NewSet()
	var (
		corpus []*syzlang.Program
		seen   = make(map[string]struct{})
	)
	for _, sh := range Shards(cfg.Seed, cfg.TotalSteps, cfg.ShardSteps) {
		p := core.NewPool(coreConfig(cfg.Campaign, sh.Seed, nil, nil), poolWorkers)
		p.Run(sh.Steps)
		shardSet := report.NewSet()
		for _, r := range p.Reports.All() {
			shardSet.Add(r)
		}
		merged.Merge(shardSet)
		for _, prog := range p.CorpusPrograms() {
			h := progHash(prog)
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			corpus = append(corpus, prog)
		}
	}
	return merged, corpus
}
