package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"ozz/internal/core"
	"ozz/internal/obs"
)

// leaseChunk is how many steps a worker runs between context checks while
// executing a lease — small enough that a shutdown signal interrupts a
// shard promptly, large enough that the check is free.
const leaseChunk = 32

// WorkerConfig parameterizes a fabric worker.
type WorkerConfig struct {
	// ManagerURL is the manager's base URL (e.g. "http://127.0.0.1:9900").
	ManagerURL string
	// Name is the worker's human-readable name for the manager's logs.
	Name string
	// Token is the manager's auth token, required when the manager was
	// configured with one.
	Token string
	// PoolWorkers is the local pool width each lease runs at
	// (0 = GOMAXPROCS).
	PoolWorkers int
	// Obs, when non-nil, receives the worker's fabric and campaign
	// metrics; nil gives the worker a fresh private registry.
	Obs *obs.Registry
	// Events, when non-nil, receives the worker's event stream.
	Events *obs.EventLog
	// HTTPClient overrides the transport (tests); nil uses a client with
	// a 30s timeout.
	HTTPClient *http.Client
	// MaxBackoff caps the exponential retry backoff (default 2s).
	MaxBackoff time.Duration
}

// Worker runs campaign shards leased from a manager on the local
// execution stack (core.Pool over internal/engine), shipping each
// shard's corpus and findings on the poll that completes it. It keeps no
// campaign state across leases. Construct with NewWorker, drive with Run.
type Worker struct {
	cfg    WorkerConfig
	do     *distObs
	client *http.Client

	campaign       CampaignSpec
	heartbeatEvery time.Duration
	leases         int // leases granted; written by Run only

	mu    sync.Mutex
	id    int    // assigned worker identity (rewritten on re-register)
	epoch uint64 // campaign epoch from the last (re-)register
	rng   *rand.Rand
	// held is the lease the worker holds, 0 for none. Heartbeats renew it
	// from grant until a poll carrying its results succeeds, so the lease
	// cannot expire while that poll is being retried.
	held uint64

	// dieAfterLeases is a test hook: when > 0, Run returns abruptly (no
	// results, no completion ack, no deregister — a simulated kill) after
	// acquiring that many leases.
	dieAfterLeases int
}

// NewWorker builds a fabric worker client. Call Run to execute.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Worker{
		cfg:    cfg,
		do:     newDistObs(cfg.Obs, cfg.Events),
		client: client,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// backoff returns the exponential client-side retry delay for the given
// consecutive-failure count, with ±50% jitter so a restarted fleet does
// not stampede the manager in lockstep.
func (w *Worker) backoff(attempt int) time.Duration {
	d := 100 * time.Millisecond << uint(attempt)
	if d > w.cfg.MaxBackoff || d <= 0 {
		d = w.cfg.MaxBackoff
	}
	w.mu.Lock()
	jitter := 0.5 + w.rng.Float64() // 0.5x .. 1.5x
	w.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// sleep waits for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// url joins the manager base URL with an endpoint path.
func (w *Worker) url(path string) string {
	return strings.TrimRight(w.cfg.ManagerURL, "/") + path
}

// ident snapshots the worker's current (id, epoch) pair.
func (w *Worker) ident() (int, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.epoch
}

// register introduces the worker, retrying with backoff until ctx dies.
// A re-registration (the worker already had an identity — the manager
// restarted under a new epoch, or forgot us) advertises the previous
// (worker, epoch) pair so the manager can eagerly release the stale
// incarnation's lease, and voids the lease held locally: its ID is fenced
// off by the epoch bump.
func (w *Worker) register(ctx context.Context) error {
	prevID, prevEpoch := w.ident()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		var resp RegisterResponse
		err := postJSON(w.client, w.url(PathRegister), RegisterRequest{
			V: ProtocolVersion, Name: w.cfg.Name, Token: w.cfg.Token,
			PrevWorkerID: prevID, PrevEpoch: prevEpoch,
		}, &resp)
		observe(w.do.httpRegister, start)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.epoch = resp.Epoch
			w.held = 0
			w.mu.Unlock()
			w.campaign = resp.Campaign
			if resp.HeartbeatMS <= 0 {
				resp.HeartbeatMS = 1000
			}
			w.heartbeatEvery = time.Duration(resp.HeartbeatMS) * time.Millisecond
			w.do.ev.Info(resp.WorkerID, "dist.register", map[string]any{
				"manager": w.cfg.ManagerURL, "name": w.cfg.Name,
				"epoch": resp.Epoch, "prev_worker": prevID,
			})
			return nil
		}
		if errStatus(err) == http.StatusForbidden {
			return fmt.Errorf("register rejected: %w", err) // err carries the dist: prefix
		}
		w.do.ev.Warn(0, "dist.retry", map[string]any{"op": "register", "err": err.Error()})
		sleep(ctx, w.backoff(attempt))
	}
}

// heartbeatLoop renews liveness and the held lease until stop closes.
func (w *Worker) heartbeatLoop(ctx context.Context, stop <-chan struct{}) {
	t := time.NewTicker(w.heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			w.mu.Lock()
			held, id, epoch := w.held, w.id, w.epoch
			w.mu.Unlock()
			start := time.Now()
			var resp HeartbeatResponse
			err := postJSON(w.client, w.url(PathHeartbeat), HeartbeatRequest{
				V: ProtocolVersion, WorkerID: id, Lease: held,
				Token: w.cfg.Token, Epoch: epoch,
			}, &resp)
			observe(w.do.httpHeartbeat, start)
			if err != nil && errStatus(err) != http.StatusGone {
				// A stale-epoch reply is the poll loop's cue, not ours.
				w.do.ev.Warn(id, "dist.retry", map[string]any{"op": "heartbeat", "err": err.Error()})
			}
		}
	}
}

// Run executes the worker loop: register, then poll and run leased
// shards until the manager declares the campaign done or ctx is
// cancelled. Each shard's corpus and findings ride on the poll that
// completes it, resent on every retry until a poll succeeds. On
// cancellation the deregistering poll carries the results still held
// (an interrupted shard's partial run, or a finished shard awaiting its
// acknowledgement), so a gracefully stopped worker loses nothing.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(ctx, stop)

	var (
		out      PollRequest // the held lease's results, resent until a poll succeeds
		failures int
	)
	for {
		if ctx.Err() != nil {
			w.deregister(out)
			return ctx.Err()
		}
		id, _ := w.ident()
		resp, err := w.poll(out)
		switch {
		case err == nil:
			failures = 0
		case errStatus(err) == http.StatusGone:
			// The manager restarted under a new epoch (or forgot us):
			// transparently rejoin, which voids the held lease. Its
			// results go with it — recovery or the sweep requeued that
			// shard anyway.
			w.do.ev.Warn(id, "dist.reregister", map[string]any{"cause": err.Error()})
			out = PollRequest{}
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case errStatus(err) == http.StatusForbidden:
			return fmt.Errorf("poll rejected: %w", err) // err carries the dist: prefix
		default:
			failures++
			w.do.ev.Warn(id, "dist.retry", map[string]any{"op": "poll", "err": err.Error()})
			sleep(ctx, w.backoff(failures))
			continue
		}
		// The poll admitted the results: stop renewing the lease.
		out = PollRequest{}
		w.setHeld(0)
		if resp.Done {
			w.deregister(out)
			w.do.ev.Info(id, "dist.done", map[string]any{"leases": w.leases})
			return nil
		}
		lease := resp.Lease
		if lease == nil {
			retry := time.Duration(resp.RetryMS) * time.Millisecond
			if retry <= 0 {
				retry = 100 * time.Millisecond
			}
			sleep(ctx, retry)
			continue
		}
		w.leases++
		w.setHeld(lease.ID)
		if w.dieAfterLeases > 0 && w.leases >= w.dieAfterLeases {
			return fmt.Errorf("dist: worker killed by test hook holding lease %d", lease.ID)
		}
		out = w.runLease(ctx, lease)
	}
}

// Leases returns how many leases the worker was granted; call it after
// Run returns.
func (w *Worker) Leases() int { return w.leases }

// poll sends req stamped with the worker's protocol version, token and
// current identity.
func (w *Worker) poll(req PollRequest) (PollResponse, error) {
	req.V, req.Token = ProtocolVersion, w.cfg.Token
	req.WorkerID, req.Epoch = w.ident()
	start := time.Now()
	var resp PollResponse
	err := postJSON(w.client, w.url(PathPoll), req, &resp)
	observe(w.do.httpPoll, start)
	return resp, err
}

// setHeld records the lease heartbeats renew (0 for none).
func (w *Worker) setHeld(id uint64) {
	w.mu.Lock()
	w.held = id
	w.mu.Unlock()
}

// runLease executes one shard on a fresh local pool and returns the poll
// that ships its results: the pool's corpus and findings, with Completed
// naming the lease when the shard ran to completion. When ctx is
// cancelled mid-shard, Completed stays 0 and the results are a partial
// run — a prefix of the rerun the manager reassigns, because shard
// execution is deterministic — for the deregistering poll to ship.
func (w *Worker) runLease(ctx context.Context, lease *Lease) PollRequest {
	pool := core.NewPool(coreConfig(w.campaign, lease.Seed, w.cfg.Obs, w.cfg.Events), w.cfg.PoolWorkers)
	out := PollRequest{Completed: lease.ID}
	for ran := 0; ran < lease.Steps; ran += leaseChunk {
		if ctx.Err() != nil {
			out.Completed = 0
			break
		}
		pool.Run(min(leaseChunk, lease.Steps-ran))
	}
	var progs strings.Builder
	_ = core.EncodePrograms(&progs, pool.CorpusPrograms()) // a strings.Builder never fails a write
	out.Programs = progs.String()
	out.Reports = pool.Reports.All()
	if out.Completed != 0 {
		id, _ := w.ident()
		w.do.ev.Info(id, "dist.lease_complete", map[string]any{
			"lease": lease.ID, "shard": lease.Shard,
		})
	}
	return out
}

// deregister sends the worker's last poll with the results it still
// holds. It makes one attempt: a lost deregistering poll leaves its shard
// unacknowledged, and the manager re-runs it.
func (w *Worker) deregister(out PollRequest) {
	out.Deregister = true
	id, _ := w.ident()
	if _, err := w.poll(out); err != nil {
		w.do.ev.Warn(id, "dist.retry", map[string]any{"op": "deregister", "err": err.Error()})
		return
	}
	w.do.ev.Info(id, "dist.deregister", nil)
}
