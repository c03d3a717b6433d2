package dist

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"ozz/internal/core"
	"ozz/internal/modules"
	"ozz/internal/obs"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// leaseChunk is how many steps a worker runs between context checks while
// executing a lease — small enough that a shutdown signal interrupts a
// shard promptly, large enough that the check is free.
const leaseChunk = 32

// syncRounds bounds the delta-exchange iterations of one sync
// conversation; two rounds converge (advertise, learn Want, ship), the
// rest is slack for corpus growth between rounds.
const syncRounds = 4

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
// execution stack (core.Pool over internal/engine), exchanging corpus
// deltas and findings after every shard. Construct with NewWorker, drive
// with Run.
type Worker struct {
	cfg    WorkerConfig
	do     *distObs
	client *http.Client

	campaign       CampaignSpec
	target         *syzlang.Target
	heartbeatEvery time.Duration

	mu          sync.Mutex
	id          int    // assigned worker identity (rewritten on re-register)
	epoch       uint64 // campaign epoch from the last (re-)register
	rng         *rand.Rand
	corpus      map[string]*syzlang.Program // key hash -> program
	corpusOrder []string                    // key hashes in first-seen order
	reports     *report.Set
	reported    map[string]struct{} // titles already acked by the manager
	want        []string            // key hashes the manager asked for
	// held is the lease the worker holds, 0 for none. Heartbeats renew it
	// from grant until a poll acknowledging its completion succeeds, so
	// the lease cannot expire while the shard's results are being synced.
	held uint64

	// dieAfterLeases is a test hook: when > 0, Run returns abruptly (no
	// completion ack, no final sync, no deregister — a simulated kill)
	// after acquiring that many leases.
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
		cfg:      cfg,
		do:       newDistObs(cfg.Obs, cfg.Events),
		client:   client,
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		corpus:   make(map[string]*syzlang.Program),
		reports:  report.NewSet(),
		reported: make(map[string]struct{}),
	}
}

// Obs returns the registry the worker publishes into.
func (w *Worker) Obs() *obs.Registry { return w.do.reg }

// CorpusLen returns the worker's merged local corpus size (its own shard
// results plus everything synced from the manager).
func (w *Worker) CorpusLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.corpusOrder)
}

// WriteCorpus streams the worker's merged local corpus to out in the
// corpus encoding, first-seen order.
func (w *Worker) WriteCorpus(out io.Writer) error {
	w.mu.Lock()
	progs := make([]*syzlang.Program, 0, len(w.corpusOrder))
	for _, h := range w.corpusOrder {
		progs = append(progs, w.corpus[h])
	}
	w.mu.Unlock()
	return core.EncodePrograms(out, progs)
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
			w.target = modules.Target(resp.Campaign.Modules...)
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

// Run executes the worker loop: register, then poll/run/report/sync until
// the manager declares the campaign done or ctx is cancelled. On
// cancellation it performs a final deregistering sync (flushing any
// unreported findings and unsynced corpus programs) before returning, so
// a gracefully stopped worker loses nothing.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeatLoop(ctx, stop)

	var (
		completed uint64 // finished lease awaiting its poll acknowledgement
		failures  int
		leases    int
	)
	for {
		if ctx.Err() != nil {
			w.deregister()
			return ctx.Err()
		}
		id, epoch := w.ident()
		start := time.Now()
		var resp PollResponse
		err := postJSON(w.client, w.url(PathPoll), PollRequest{
			V: ProtocolVersion, WorkerID: id, Completed: completed,
			Token: w.cfg.Token, Epoch: epoch,
		}, &resp)
		observe(w.do.httpPoll, start)
		switch {
		case err == nil:
			failures = 0
		case errStatus(err) == http.StatusGone:
			// The manager restarted under a new epoch (or forgot us):
			// transparently rejoin, which voids the held lease. A
			// completion for a pre-restart lease ID is dropped — recovery
			// requeued that shard anyway.
			w.do.ev.Warn(id, "dist.reregister", map[string]any{"cause": err.Error()})
			completed = 0
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
		// The poll acknowledged the completion: stop renewing the lease.
		completed = 0
		w.setHeld(0)
		if resp.Done {
			w.deregister()
			w.do.ev.Info(id, "dist.done", map[string]any{
				"leases": leases, "corpus": w.CorpusLen(),
			})
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
		leases++
		w.setHeld(lease.ID)
		if w.dieAfterLeases > 0 && leases >= w.dieAfterLeases {
			return fmt.Errorf("dist: worker killed by test hook holding lease %d", lease.ID)
		}
		if w.runLease(ctx, lease) {
			completed = lease.ID
		}
		// Push findings and exchange corpus deltas after every lease —
		// cheap (delta-based), and it keeps the global view fresh enough
		// that a later crash loses at most one shard's discoveries. The
		// next poll acknowledges the completion only after both landed.
		w.pushReports()
		w.syncConverse(false)
	}
}

// setHeld records the lease heartbeats renew (0 for none).
func (w *Worker) setHeld(id uint64) {
	w.mu.Lock()
	w.held = id
	w.mu.Unlock()
}

// runLease executes one shard on a fresh local pool, folding its corpus
// and findings into the worker's aggregate state. It reports whether the
// shard ran to completion (false when ctx was cancelled mid-shard — the
// manager will reassign the lease, and because shard execution is
// deterministic, the partial results are a prefix of the rerun's and
// merge harmlessly).
func (w *Worker) runLease(ctx context.Context, lease *Lease) bool {
	pool := core.NewPool(coreConfig(w.campaign, lease.Seed, w.cfg.Obs, w.cfg.Events), w.cfg.PoolWorkers)
	ran := 0
	for ran < lease.Steps {
		if ctx.Err() != nil {
			w.absorb(pool)
			return false
		}
		n := leaseChunk
		if lease.Steps-ran < n {
			n = lease.Steps - ran
		}
		pool.Run(n)
		ran += n
	}
	w.absorb(pool)
	id, _ := w.ident()
	w.do.ev.Info(id, "dist.lease_complete", map[string]any{
		"lease": lease.ID, "shard": lease.Shard,
	})
	return true
}

// absorb merges one pool campaign's corpus and findings into the worker's
// aggregate state, deduplicating by program key and crash title.
func (w *Worker) absorb(pool *core.Pool) {
	progs := pool.CorpusPrograms()
	reps := pool.Reports.All()
	w.mu.Lock()
	for _, p := range progs {
		h := progHash(p)
		if _, dup := w.corpus[h]; dup {
			continue
		}
		w.corpus[h] = p
		w.corpusOrder = append(w.corpusOrder, h)
	}
	for _, r := range reps {
		w.reports.Add(r)
	}
	w.do.corpusProgs.Set(float64(len(w.corpusOrder)))
	w.mu.Unlock()
}

// pushReports ships findings the manager has not acked yet.
func (w *Worker) pushReports() {
	w.mu.Lock()
	var fresh []*report.Report
	for _, r := range w.reports.All() {
		if _, acked := w.reported[r.Title]; !acked {
			fresh = append(fresh, r)
		}
	}
	w.mu.Unlock()
	if len(fresh) == 0 {
		return
	}
	id, epoch := w.ident()
	start := time.Now()
	var resp ReportResponse
	err := postJSON(w.client, w.url(PathReport), ReportRequest{
		V: ProtocolVersion, WorkerID: id, Reports: fresh,
		Token: w.cfg.Token, Epoch: epoch,
	}, &resp)
	observe(w.do.httpReport, start)
	if err != nil {
		w.do.ev.Warn(id, "dist.retry", map[string]any{"op": "report", "err": err.Error()})
		return // unacked titles stay queued for the next push
	}
	w.mu.Lock()
	for _, r := range fresh {
		w.reported[r.Title] = struct{}{}
	}
	w.mu.Unlock()
	w.do.ev.Info(id, "dist.report", map[string]any{
		"sent": len(fresh), "added": resp.Added,
	})
}

// syncConverse runs one delta conversation with the manager: advertise
// key hashes, ship the bodies the previous round's Want asked for, merge
// what the manager sends back, and repeat until the Want list drains
// (bounded by syncRounds). With deregister set, every request carries the
// Deregister flag, so the manager releases this worker's leases on the
// first round and keeps merging shipped programs on the rest.
func (w *Worker) syncConverse(deregister bool) {
	rejoined := false
	for round := 0; round < syncRounds; round++ {
		w.mu.Lock()
		keys := append([]string(nil), w.corpusOrder...)
		var shipped []*syzlang.Program
		for _, h := range w.want {
			if p, ok := w.corpus[h]; ok {
				shipped = append(shipped, p)
			}
		}
		w.want = nil
		w.mu.Unlock()
		var payload strings.Builder
		if len(shipped) > 0 {
			_ = core.EncodePrograms(&payload, shipped)
			w.do.syncBytesOut.Add(uint64(payload.Len()))
			w.do.syncProgsOut.Add(uint64(len(shipped)))
		}
		id, epoch := w.ident()
		start := time.Now()
		var resp SyncResponse
		err := postJSON(w.client, w.url(PathSync), SyncRequest{
			V: ProtocolVersion, WorkerID: id,
			Keys: keys, Programs: payload.String(),
			Deregister: deregister, Token: w.cfg.Token, Epoch: epoch,
		}, &resp)
		observe(w.do.httpSync, start)
		if errStatus(err) == http.StatusGone && !rejoined {
			// Manager restarted mid-conversation: rejoin once (bounded —
			// the 410 proves the manager is answering) so a final flush
			// still lands rather than losing this worker's discoveries.
			rejoined = true
			rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			rerr := w.register(rctx)
			cancel()
			if rerr == nil {
				round--
				continue
			}
			return
		}
		if err != nil {
			w.do.ev.Warn(id, "dist.retry", map[string]any{"op": "sync", "err": err.Error()})
			return
		}
		merged := 0
		if resp.Programs != "" {
			progs, _ := core.DecodePrograms(strings.NewReader(resp.Programs), w.target)
			w.mu.Lock()
			for _, p := range progs {
				h := progHash(p)
				if _, dup := w.corpus[h]; dup {
					continue
				}
				w.corpus[h] = p
				w.corpusOrder = append(w.corpusOrder, h)
				merged++
			}
			w.do.corpusProgs.Set(float64(len(w.corpusOrder)))
			w.mu.Unlock()
			w.do.syncBytesIn.Add(uint64(len(resp.Programs)))
			w.do.syncProgsIn.Add(uint64(merged))
		}
		w.do.ev.Info(id, "dist.sync", map[string]any{
			"round": round, "sent_programs": len(shipped), "recv_programs": merged,
			"want": len(resp.Want), "deregister": deregister,
		})
		w.mu.Lock()
		w.want = resp.Want
		w.mu.Unlock()
		if len(resp.Want) == 0 {
			return
		}
	}
}

// deregister performs the worker's final flush: remaining reports, then a
// deregistering sync conversation that ships everything the manager still
// wants.
func (w *Worker) deregister() {
	w.pushReports()
	w.syncConverse(true)
	id, _ := w.ident()
	w.do.ev.Info(id, "dist.deregister", nil)
}
