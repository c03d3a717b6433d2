package dist

import (
	"crypto/subtle"
	"fmt"
	"io"
	"net/http"
	"os"
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
		Modules:         spec.Modules,
		Bugs:            modules.Bugs(spec.Bugs...),
		Seed:            seed,
		ProgLen:         spec.ProgLen,
		MaxHintsPerPair: spec.MaxHintsPerPair,
		MaxPairs:        spec.MaxPairs,
		UseSeeds:        spec.UseSeeds,
		HintOrder:       spec.HintOrder,
		Model:           mm,
		Obs:             reg,
		Events:          ev,
	}
}

// ManagerConfig parameterizes the fabric manager. The campaign fields
// (Campaign, TotalSteps, ShardSteps, Seed, Token) define the manager's
// default campaign; AddCampaign hosts more next to it.
type ManagerConfig struct {
	// Campaign is the default campaign's configuration shipped to workers.
	Campaign CampaignSpec
	// TotalSteps is the default campaign's step budget across all shards.
	TotalSteps int
	// ShardSteps is the per-lease step budget (default 64).
	ShardSteps int
	// Seed is the base campaign seed the shard seeds derive from.
	Seed int64
	// Token, when non-empty, is the default campaign's auth token.
	Token string
	// LeaseTTL is how long a granted lease lives without renewal
	// (default 5s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the heartbeat cadence told to workers
	// (default 1s).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many missed cadences mark a worker dead
	// (default 3).
	HeartbeatMisses int
	// MaxLeaseBatch caps how many shards one poll may grant to a worker
	// when the pending backlog is deep (default 4).
	MaxLeaseBatch int
	// StealDuplicates caps how many duplicate (stolen) leases may be
	// outstanding per in-flight shard beyond the original (default 1;
	// negative disables work stealing).
	StealDuplicates int
	// StateDir, when non-empty, makes every hosted campaign durable:
	// state is journaled to <StateDir>/<campaign>/wal.log, compacted into
	// snapshot.json, and restored (with an epoch bump) on the next
	// NewManager over the same directory.
	StateDir string
	// SnapshotEvery is how many WAL records trigger a compaction
	// (default 256).
	SnapshotEvery int
	// Obs, when non-nil, is the registry the manager publishes fabric
	// metrics into; nil gives it a fresh private registry.
	Obs *obs.Registry
	// Events, when non-nil, receives the manager's dist.* event stream,
	// tagged with the registered worker IDs.
	Events *obs.EventLog
}

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
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.MaxLeaseBatch <= 0 {
		c.MaxLeaseBatch = 4
	}
	if c.StealDuplicates == 0 {
		c.StealDuplicates = 1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
}

// defaultCampaignConfig extracts the default campaign's config.
func (c *ManagerConfig) defaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Campaign: c.Campaign, TotalSteps: c.TotalSteps,
		ShardSteps: c.ShardSteps, Seed: c.Seed, Token: c.Token,
	}
}

// Manager hosts campaigns: each owns its shard frontier, merged coverage
// corpus (keyed by program-key hash), globally deduplicated report set,
// worker/lease tables, and registration epoch; with a state directory
// configured each is also journaled to a write-ahead log and restored on
// restart. All methods and HTTP handlers are safe for concurrent use.
type Manager struct {
	cfg ManagerConfig
	do  *distObs

	mu    sync.Mutex
	camps map[string]*campaign
	order []string // campaign names in creation order

	// now is stubbed in tests; defaults to time.Now.
	now func() time.Time
}

// NewManager builds a fabric manager hosting the configuration's default
// campaign. With StateDir set it restores every campaign found in the
// directory (the default campaign plus any previously hosted ones),
// replaying snapshot+WAL and bumping epochs so surviving workers
// re-register. It does not listen; mount Handler on an http.Server.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	cfg.normalize()
	m := &Manager{
		cfg:   cfg,
		do:    newDistObs(cfg.Obs, cfg.Events),
		camps: make(map[string]*campaign),
		now:   time.Now,
	}
	if err := m.AddCampaign(DefaultCampaign, cfg.defaultCampaignConfig()); err != nil {
		return nil, err
	}
	if cfg.StateDir != "" {
		entries, err := os.ReadDir(cfg.StateDir)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("dist: state dir: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || !validCampaignName(name) || name == DefaultCampaign {
				continue
			}
			// A previously hosted campaign: restore it with an empty config
			// (the snapshot supplies plan and spec; tokens are config, so a
			// relaunched fleet re-supplies them via AddCampaign).
			if err := m.AddCampaign(name, CampaignConfig{}); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// AddCampaign hosts (or, when the state directory already holds its
// snapshot/WAL, restores) a named campaign next to the default one. It
// is idempotent on the name: re-adding updates the auth token and leaves
// an existing campaign's plan and state untouched — except when the
// existing campaign has no plan at all (restored from a legacy state
// directory holding only a WAL, no snapshot), in which case it adopts
// the supplied plan instead of staying a zero-shard husk.
func (m *Manager) AddCampaign(name string, cfg CampaignConfig) error {
	if !validCampaignName(name) {
		return fmt.Errorf("dist: invalid campaign name %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.camps[name]; ok {
		c.cfg.Token = cfg.Token
		if len(c.shards) == 0 && cfg.TotalSteps > 0 {
			cfg.normalize()
			c.cfg.Campaign = cfg.Campaign
			c.cfg.TotalSteps, c.cfg.ShardSteps, c.cfg.Seed = cfg.TotalSteps, cfg.ShardSteps, cfg.Seed
			c.target = modules.Target(cfg.Campaign.Modules...)
			c.doneEmitted = false
			c.rebuildPlanLocked()
			c.snapshotLocked()
			m.setGaugesLocked()
		}
		return nil
	}
	c := newCampaign(m, name, cfg)
	if m.cfg.StateDir != "" {
		if err := c.openStateLocked(); err != nil {
			return err
		}
	}
	m.camps[name] = c
	m.order = append(m.order, name)
	m.do.campaigns.Set(float64(len(m.camps)))
	m.do.campaignEpoch.With(name).Set(float64(c.epoch))
	m.setGaugesLocked()
	return nil
}

// Campaigns returns the hosted campaign names in creation order.
func (m *Manager) Campaigns() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// ExportCampaign streams the named campaign's snapshot (corpus, reports,
// completed shards, plan, epoch — everything but auth tokens) to w, the
// drain half of drain/relaunch. The fleet may keep running; the export
// is a point-in-time copy.
func (m *Manager) ExportCampaign(name string, w io.Writer) error {
	m.mu.Lock()
	c := m.campLocked(name)
	if c == nil {
		m.mu.Unlock()
		return fmt.Errorf("dist: unknown campaign %q", name)
	}
	snap := c.buildSnapshotLocked()
	m.mu.Unlock()
	m.do.ev.Info(0, "dist.export", map[string]any{
		"campaign": snap.Name, "corpus": len(snap.Completed), "reports": len(snap.Reports),
	})
	return writeSnapshotTo(w, snap)
}

// ImportCampaign reads a snapshot from r and hosts it under its recorded
// name (overwriting a hosted campaign's state if the name collides), the
// relaunch half of drain/relaunch. The importing manager's state
// directory, if any, immediately persists the imported state; the token
// argument guards the relaunched campaign.
func (m *Manager) ImportCampaign(r io.Reader, token string) (string, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return "", err
	}
	if !validCampaignName(snap.Name) {
		return "", fmt.Errorf("dist: snapshot has invalid campaign name %q", snap.Name)
	}
	m.mu.Lock()
	c := m.campLocked(snap.Name)
	if c == nil {
		c = newCampaign(m, snap.Name, CampaignConfig{Token: token})
		m.camps[snap.Name] = c
		m.order = append(m.order, snap.Name)
	}
	c.cfg.Token = token
	c.restoreSnapshotLocked(snap)
	c.epoch++
	c.requeueIncompleteLocked()
	if m.cfg.StateDir != "" {
		// Attach the state directory WITHOUT restoring from it: whatever
		// is on disk (a stale snapshot, an orphaned WAL from a campaign
		// degraded by an earlier write failure) is exactly what this
		// import replaces. openStateLocked here would replay that stale
		// state over the import and then persist it, silently discarding
		// the snapshot we just read.
		if c.wal == nil {
			if err := c.attachStateLocked(); err != nil {
				m.mu.Unlock()
				return "", err
			}
		}
		c.snapshotLocked()
		c.journalLocked(walEpoch, walEpochD{Epoch: c.epoch})
	}
	m.do.campaigns.Set(float64(len(m.camps)))
	m.do.campaignEpoch.With(snap.Name).Set(float64(c.epoch))
	m.setGaugesLocked()
	m.mu.Unlock()
	m.do.ev.Info(0, "dist.import", map[string]any{
		"campaign": snap.Name, "epoch": snap.Epoch + 1,
		"reports": len(snap.Reports), "completed": len(snap.Completed),
	})
	return snap.Name, nil
}

// Close snapshots and closes every durable campaign's WAL. A manager
// that is not durable ignores Close.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, name := range m.order {
		c := m.camps[name]
		if c.wal == nil {
			continue
		}
		c.snapshotLocked()
		if c.wal != nil {
			if err := c.wal.close(); err != nil && first == nil {
				first = err
			}
			c.wal = nil
		}
	}
	return first
}

// campLocked resolves a campaign name (empty = default); nil if unknown.
func (m *Manager) campLocked(name string) *campaign {
	if name == "" {
		name = DefaultCampaign
	}
	return m.camps[name]
}

// def returns the default campaign (always hosted).
func (m *Manager) def() *campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign]
}

// Obs returns the registry the manager publishes fabric metrics into.
func (m *Manager) Obs() *obs.Registry { return m.do.reg }

// Done reports whether every shard of the default campaign has completed.
func (m *Manager) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign].doneLocked()
}

// AllDone reports whether every hosted campaign has completed.
func (m *Manager) AllDone() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.camps {
		if !c.doneLocked() {
			return false
		}
	}
	return true
}

// Epoch returns the default campaign's registration epoch (1 on a fresh
// campaign, +1 per restore).
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign].epoch
}

// WorkersConnected returns the number of currently registered workers
// across all campaigns.
func (m *Manager) WorkersConnected() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.camps {
		n += c.connectedLocked()
	}
	return n
}

// ShardsCompleted returns how many default-campaign shards have finished.
func (m *Manager) ShardsCompleted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign].completed
}

// ShardsTotal returns the default campaign's shard plan size.
func (m *Manager) ShardsTotal() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.camps[DefaultCampaign].shards)
}

// WorkersSeen returns how many workers ever registered with the default
// campaign (including ones that since deregistered or died).
func (m *Manager) WorkersSeen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign].nextWorker
}

// Reports returns the default campaign's globally deduplicated findings
// in first-seen order.
func (m *Manager) Reports() []*report.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign].reports.All()
}

// ReportTitles returns the default campaign's sorted unique crash titles.
func (m *Manager) ReportTitles() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.camps[DefaultCampaign].reports.Titles()
}

// CorpusLen returns the default campaign's merged global corpus size.
func (m *Manager) CorpusLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.camps[DefaultCampaign].corpusOrder)
}

// CorpusKeyHashes returns the default campaign's merged corpus key hashes
// in first-seen order (testing and tooling).
func (m *Manager) CorpusKeyHashes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.camps[DefaultCampaign].corpusOrder...)
}

// WriteCorpus streams the default campaign's merged global corpus to w in
// the corpus encoding, first-seen order.
func (m *Manager) WriteCorpus(w io.Writer) error {
	m.mu.Lock()
	c := m.camps[DefaultCampaign]
	progs := make([]*syzlang.Program, 0, len(c.corpusOrder))
	for _, h := range c.corpusOrder {
		progs = append(progs, c.corpus[h])
	}
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

// negotiate returns the protocol version to answer a request with.
func negotiate(reqV int) int {
	if reqV < ProtocolVersion {
		return reqV
	}
	return ProtocolVersion
}

// checkVersion rejects protocol versions outside the accepted window;
// reports whether the request may proceed.
func checkVersion(w http.ResponseWriter, v int) bool {
	if v < MinProtocolVersion || v > ProtocolVersion {
		writeError(w, http.StatusBadRequest,
			"protocol version %d, manager speaks %d..%d", v, MinProtocolVersion, ProtocolVersion)
		return false
	}
	return true
}

// resolveLocked authenticates a request's (campaign, token, epoch)
// triple, writing the error reply and returning nil on failure. Version
// 1 clients carry no epoch; their epoch 0 is only accepted while the
// campaign is still in its first epoch, so legacy workers are fenced off
// exactly when state actually moved under them.
func (m *Manager) resolveLocked(w http.ResponseWriter, campaignName, token string, epoch uint64, checkEpoch bool) *campaign {
	c := m.campLocked(campaignName)
	if c == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", campaignName)
		return nil
	}
	if c.cfg.Token != "" && subtle.ConstantTimeCompare([]byte(token), []byte(c.cfg.Token)) != 1 {
		writeError(w, http.StatusForbidden, "campaign %q: bad or missing token", c.name)
		return nil
	}
	if checkEpoch {
		want := c.epoch
		if epoch == 0 && want == 1 {
			epoch = 1 // v1 clients on a never-restarted campaign
		}
		if epoch != want {
			writeError(w, http.StatusGone,
				"stale epoch %d for campaign %q (current %d): re-register", epoch, c.name, want)
			return nil
		}
	}
	return c
}

// setGaugesLocked refreshes the cross-campaign worker and pending-shard
// gauges; caller holds m.mu.
func (m *Manager) setGaugesLocked() {
	workers, pending := 0, 0
	for _, c := range m.camps {
		workers += c.connectedLocked()
		pending += len(c.pending)
	}
	m.do.workers.Set(float64(workers))
	m.do.leasesPending.Set(float64(pending))
}

// handleRegister admits a worker and ships the campaign spec. A
// re-registration (PrevWorkerID set) eagerly releases the previous
// incarnation's leases instead of letting them block their shards until
// the TTL sweep.
func (m *Manager) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if !checkVersion(w, req.V) {
		return
	}
	m.mu.Lock()
	c := m.resolveLocked(w, req.Campaign, req.Token, 0, false)
	if c == nil {
		m.mu.Unlock()
		return
	}
	id, requeued := c.registerLocked(req.Name, req.PrevWorkerID)
	epoch := c.epoch
	spec := c.cfg.Campaign
	m.do.registrations.Inc()
	m.setGaugesLocked()
	m.mu.Unlock()
	m.do.ev.Info(id, "dist.register", map[string]any{
		"campaign": c.name, "name": req.Name,
		"prev_worker": req.PrevWorkerID, "prev_epoch": req.PrevEpoch,
	})
	for _, shard := range requeued {
		m.do.ev.Warn(req.PrevWorkerID, "dist.lease_reassign", map[string]any{
			"campaign": c.name, "shard": shard, "cause": "re-register",
		})
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		V:           negotiate(req.V),
		WorkerID:    id,
		Epoch:       epoch,
		Campaign:    spec,
		HeartbeatMS: m.cfg.HeartbeatEvery.Milliseconds(),
	})
}

// handlePoll sweeps expired state, acknowledges completions, and grants
// a dynamically sized lease batch (or a stolen duplicate lease) when
// work is available.
func (m *Manager) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad poll body: %v", err)
		return
	}
	if !checkVersion(w, req.V) {
		return
	}
	m.sweep()
	m.mu.Lock()
	c := m.resolveLocked(w, req.Campaign, req.Token, req.Epoch, true)
	if c == nil {
		m.mu.Unlock()
		return
	}
	ws := c.touchLocked(req.WorkerID)
	if ws == nil {
		m.mu.Unlock()
		writeError(w, http.StatusGone, "unknown worker %d: re-register", req.WorkerID)
		return
	}
	for _, id := range req.Completed {
		c.completeLocked(ws, id)
	}
	resp := PollResponse{V: negotiate(req.V)}
	var stolen bool
	if c.doneLocked() {
		resp.Done = true
	} else {
		var granted []*Lease
		granted, stolen = c.grantLocked(ws)
		if req.V < 2 && len(granted) > 1 {
			// A v1 client reads a single lease; return the rest.
			for _, l := range granted[1:] {
				c.ungrantLocked(l.ID)
			}
			granted = granted[:1]
		}
		if len(granted) > 0 {
			resp.Leases = granted
			resp.Lease = granted[0]
		} else {
			resp.RetryMS = (m.cfg.HeartbeatEvery / 2).Milliseconds()
		}
	}
	m.setGaugesLocked()
	m.mu.Unlock()
	for _, l := range resp.Leases {
		kind := "dist.lease_grant"
		if stolen {
			kind = "dist.steal.grant"
		}
		m.do.ev.Info(req.WorkerID, kind, map[string]any{
			"campaign": c.name, "lease": l.ID, "shard": l.Shard,
			"seed": l.Seed, "steps": l.Steps,
		})
	}
	m.maybeEmitDone(c)
	writeJSON(w, http.StatusOK, resp)
}

// ungrantLocked retracts a just-granted lease (v1 batch downgrade),
// returning its shard to the head of the queue.
func (c *campaign) ungrantLocked(leaseID uint64) {
	ls := c.inflight[leaseID]
	if ls == nil {
		return
	}
	delete(c.inflight, leaseID)
	delete(c.leaseByID, leaseID)
	if owner := c.workers[ls.worker]; owner != nil {
		delete(owner.leases, leaseID)
	}
	if !ls.stolen && !c.shards[ls.shard].completed {
		c.pending = append([]int{ls.shard}, c.pending...)
	}
}

// sweep requeues expired leases and declares silent workers dead, across
// every campaign. It runs lazily at the top of every poll/sync/heartbeat,
// so liveness advances as long as any worker keeps talking; tests may
// call it directly.
func (m *Manager) sweep() {
	type reassigned struct {
		campaign string
		lease    uint64
		shard    int
		worker   int
	}
	var (
		dead     []int
		deadline time.Duration
		res      []reassigned
	)
	m.mu.Lock()
	now := m.now()
	deadline = time.Duration(m.cfg.HeartbeatMisses) * m.cfg.HeartbeatEvery
	for _, c := range m.camps {
		for id, ws := range c.workers {
			if ws.connected && now.Sub(ws.lastSeen) > deadline {
				ws.connected = false
				dead = append(dead, id)
				m.do.heartbeatMisses.Inc()
			}
		}
		for id, ls := range c.inflight {
			owner := c.workers[ls.worker]
			if now.After(ls.expiry) || owner == nil || !owner.connected {
				delete(c.inflight, id)
				if owner != nil {
					delete(owner.leases, id)
				}
				if !c.shards[ls.shard].completed {
					c.pending = append(c.pending, ls.shard)
					m.do.leaseReassigns.Inc()
					res = append(res, reassigned{campaign: c.name, lease: id, shard: ls.shard, worker: ls.worker})
				}
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
	for _, r := range res {
		m.do.ev.Warn(r.worker, "dist.lease_reassign", map[string]any{
			"campaign": r.campaign, "lease": r.lease, "shard": r.shard, "cause": "expired",
		})
	}
}

// maybeEmitDone emits the dist.done event exactly once per campaign,
// when its last shard completes, and compacts a durable campaign's final
// state.
func (m *Manager) maybeEmitDone(c *campaign) {
	m.mu.Lock()
	fire := c.doneLocked() && !c.doneEmitted
	if fire {
		c.doneEmitted = true
		if c.wal != nil {
			c.snapshotLocked()
		}
	}
	shards, reports, corpus := len(c.shards), c.reports.Len(), len(c.corpusOrder)
	m.mu.Unlock()
	if fire {
		m.do.ev.Info(0, "dist.done", map[string]any{
			"campaign": c.name, "shards": shards, "reports": reports, "corpus": corpus,
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
	if !checkVersion(w, req.V) {
		return
	}
	m.sweep()
	m.mu.Lock()
	c := m.resolveLocked(w, req.Campaign, req.Token, req.Epoch, true)
	if c == nil {
		m.mu.Unlock()
		return
	}
	ws := c.touchLocked(req.WorkerID)
	if ws == nil && !req.Deregister {
		m.mu.Unlock()
		writeError(w, http.StatusGone, "unknown worker %d: re-register", req.WorkerID)
		return
	}
	// Merge the program bodies the worker shipped (ones we asked for, but
	// validate and dedup regardless of what arrived).
	recvProgs := 0
	if req.Programs != "" {
		progs, _ := core.DecodePrograms(strings.NewReader(req.Programs), c.target)
		for _, p := range progs {
			if c.admitProgramLocked(p, true) {
				recvProgs++
			}
		}
		m.do.syncBytesIn.Add(uint64(len(req.Programs)))
		m.do.syncProgsIn.Add(uint64(recvProgs))
		m.do.corpusProgs.Set(float64(len(c.corpusOrder)))
	}
	// Diff the worker's advertisement against the global corpus.
	workerHas := make(map[string]struct{}, len(req.Keys))
	for _, k := range req.Keys {
		workerHas[k] = struct{}{}
	}
	var want []string
	for _, k := range req.Keys {
		if _, ok := c.corpus[k]; !ok {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	var toSend []*syzlang.Program
	for _, h := range c.corpusOrder {
		if _, ok := workerHas[h]; !ok {
			toSend = append(toSend, c.corpus[h])
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
		for id := range ws.leases {
			if ls := c.inflight[id]; ls != nil {
				delete(c.inflight, id)
				if !c.shards[ls.shard].completed {
					c.pending = append(c.pending, ls.shard)
					m.do.leaseReassigns.Inc()
				}
			}
			delete(ws.leases, id)
		}
	}
	m.setGaugesLocked()
	m.mu.Unlock()
	m.do.ev.Info(req.WorkerID, "dist.sync", map[string]any{
		"campaign":      c.name,
		"recv_programs": recvProgs, "sent_programs": len(toSend),
		"recv_bytes": len(req.Programs), "sent_bytes": payload.Len(),
		"want": len(want), "deregister": req.Deregister,
	})
	if req.Deregister {
		m.do.ev.Info(req.WorkerID, "dist.deregister", nil)
	}
	writeJSON(w, http.StatusOK, SyncResponse{
		V: negotiate(req.V), Programs: payload.String(), Want: want,
	})
}

// handleReport merges worker findings into the campaign's global
// deduplicated set.
func (m *Manager) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad report body: %v", err)
		return
	}
	if !checkVersion(w, req.V) {
		return
	}
	m.mu.Lock()
	c := m.resolveLocked(w, req.Campaign, req.Token, req.Epoch, true)
	if c == nil {
		m.mu.Unlock()
		return
	}
	if ws := c.touchLocked(req.WorkerID); ws == nil {
		m.mu.Unlock()
		writeError(w, http.StatusGone, "unknown worker %d: re-register", req.WorkerID)
		return
	}
	added := 0
	for _, rep := range req.Reports {
		if rep != nil && rep.Title != "" && c.admitReportLocked(rep, true) {
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
		"campaign": c.name, "received": len(req.Reports), "added": added,
	})
	writeJSON(w, http.StatusOK, ReportResponse{V: negotiate(req.V), Added: added})
}

// handleHeartbeat renews worker liveness and its leases.
func (m *Manager) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	if !checkVersion(w, req.V) {
		return
	}
	m.sweep()
	m.mu.Lock()
	c := m.resolveLocked(w, req.Campaign, req.Token, req.Epoch, true)
	if c == nil {
		m.mu.Unlock()
		return
	}
	ws := c.touchLocked(req.WorkerID)
	ok := ws != nil
	if ok {
		for _, id := range req.Leases {
			if ls := c.inflight[id]; ls != nil && ls.worker == ws.id {
				ls.expiry = m.now().Add(m.cfg.LeaseTTL)
			}
		}
	}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, HeartbeatResponse{V: negotiate(req.V), OK: ok})
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
