// Package dist is the distributed campaign fabric: a manager that owns
// the global coverage corpus, the work-shard frontier, and the global
// deduplicated report set, plus workers that each run the local execution
// stack (internal/engine via core.Pool) and speak a versioned
// JSON-over-HTTP protocol with the manager.
//
// Design rules:
//
//   - The protocol is dependency-free: net/http + encoding/json only.
//   - Work is leased, never given away: a worker holds a renewable lease
//     on each shard it runs, and the manager reassigns leases whose
//     worker stopped heartbeating — a killed worker loses nothing but
//     in-flight shards.
//   - Results travel one way, once: the poll that completes a shard
//     carries that shard's corpus (in the streaming corpus encoding of
//     internal/core) and findings, and the manager admits them before it
//     marks the shard complete. Workers keep nothing across leases; the
//     manager never sends programs down, because no worker executes a
//     corpus it did not generate from its shard seed.
//   - Shards are deterministic: a shard's campaign is a function of its
//     derived seed alone, so the union of shard results is independent of
//     which worker runs which shard, and a 1-manager/N-worker campaign
//     finds exactly the deduplicated report titles of a standalone run
//     over the same shard plan (see the tests' RunShardsLocal).
//     Determinism also makes duplicate execution harmless, which is what
//     lease reassignment and crash-restart resume both lean on.
//   - State is durable when asked: with a state directory configured the
//     manager journals every admission (corpus program, report, shard
//     completion, registration) to a CRC-checked write-ahead log and
//     periodically compacts it into a snapshot; a restarted manager
//     replays the log over the latest snapshot, bumps the campaign epoch,
//     and workers transparently re-register (see wal.go and
//     docs/DISTRIBUTED.md).
//   - One manager hosts one campaign and grants one lease per poll; an
//     optional manager-wide token authenticates every request.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ozz/internal/report"
)

// ProtocolVersion is the fabric's wire protocol version. Every request
// and response carries it in the V field. Version 4 has one campaign per
// manager, one lease per poll, an optional auth token, the epoch-stamped
// re-register handshake, and ships each shard's results on the poll that
// completes it. The manager accepts exactly this version: any other is
// rejected with HTTP 400 and an ErrorResponse, so incompatible fleets
// fail fast instead of corrupting each other's state (a version-3 worker,
// which completes shards before shipping their results, never joins).
const ProtocolVersion = 4

// Endpoint paths of the manager's HTTP API.
const (
	PathRegister  = "/register"
	PathPoll      = "/poll"
	PathHeartbeat = "/heartbeat"
)

// CampaignSpec is the manager-owned campaign configuration shipped to
// every worker at registration, mirroring the core.Config fields a worker
// needs to reconstruct the execution stack locally. Zero values take the
// usual core defaults on the worker side.
type CampaignSpec struct {
	// Modules to load (empty = all).
	Modules []string `json:"modules,omitempty"`
	// Bugs lists the active bug switches, sorted.
	Bugs []string `json:"bugs,omitempty"`
	// UseSeeds feeds the modules' seed corpus before random generation.
	UseSeeds bool `json:"use_seeds,omitempty"`
	// Model names the memory model OEMU emulates on every worker
	// ("lkmm", "tso", "armv8"; empty = lkmm). Shipping the name rather
	// than the table keeps the protocol dependency-free; workers resolve
	// it with memmodel.ByName.
	Model string `json:"model,omitempty"`
}

// Lease is one granted work unit: a deterministic campaign shard plus the
// lease bookkeeping. The worker must complete the shard (or keep the lease
// renewed via heartbeats) before TTLMS elapses, or the manager hands the
// shard to someone else.
type Lease struct {
	// ID is the lease identity, unique across the campaign (a reassigned
	// shard gets a fresh lease ID).
	ID uint64 `json:"id"`
	// Shard is the shard index in the campaign's shard plan.
	Shard int `json:"shard"`
	// Seed is the shard's derived campaign seed.
	Seed int64 `json:"seed"`
	// Steps is the shard's step budget.
	Steps int `json:"steps"`
	// TTLMS is the lease duration in milliseconds from grant time.
	TTLMS int64 `json:"ttl_ms"`
}

// RegisterRequest introduces a worker to the manager (or re-introduces
// one whose previous incarnation died or outlived a manager restart).
type RegisterRequest struct {
	// V is the sender's protocol version.
	V int `json:"v"`
	// Name is a human-readable worker name for logs and events.
	Name string `json:"name,omitempty"`
	// Token authenticates against the manager's auth token; required
	// whenever the manager has one, rejected requests get HTTP 403.
	Token string `json:"token,omitempty"`
	// PrevWorkerID is the worker identity of this client's previous
	// incarnation, when it is re-registering after a crash, a manager
	// restart, or an epoch mismatch. The manager eagerly releases the
	// previous incarnation's leases back to the queue instead of letting
	// them sit until the TTL sweep.
	PrevWorkerID int `json:"prev_worker_id,omitempty"`
	// PrevEpoch is the campaign epoch the previous incarnation was
	// registered under (log/debug context for the handshake).
	PrevEpoch uint64 `json:"prev_epoch,omitempty"`
}

// RegisterResponse assigns the worker its identity and the campaign.
type RegisterResponse struct {
	// V is the manager's protocol version.
	V int `json:"v"`
	// WorkerID is the manager-assigned worker identity (1-based); it tags the worker's records in the manager's event log.
	WorkerID int `json:"worker_id"`
	// Epoch is the campaign's current registration epoch. It increments
	// every time a manager restarts the campaign from persistent state;
	// every subsequent request must echo it, and a mismatch (HTTP 410)
	// tells the worker to re-register.
	Epoch uint64 `json:"epoch,omitempty"`
	// Campaign is the campaign configuration to run shards under.
	Campaign CampaignSpec `json:"campaign"`
	// HeartbeatMS is how often the manager expects heartbeats.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// PollRequest asks for work, acknowledges a completed lease together with
// its shard's results, or deregisters the worker.
type PollRequest struct {
	// V is the sender's protocol version.
	V int `json:"v"`
	// WorkerID is the registered worker identity.
	WorkerID int `json:"worker_id"`
	// Token authenticates against the manager's auth token.
	Token string `json:"token,omitempty"`
	// Epoch echoes the registration epoch; a stale value gets HTTP 410.
	Epoch uint64 `json:"epoch,omitempty"`
	// Completed is the ID of the lease the worker finished since its last
	// poll, 0 for none (lease IDs are epoch<<32|seq with epoch >= 1, so 0
	// never names a lease).
	Completed uint64 `json:"completed,omitempty"`
	// Programs is the finished shard's corpus in the streaming corpus
	// encoding; on a deregistering poll, the interrupted shard's partial
	// corpus.
	Programs string `json:"programs,omitempty"`
	// Reports are the same shard's findings, first-seen order.
	Reports []*report.Report `json:"reports,omitempty"`
	// Deregister marks the worker's last message: after admitting the
	// results, the manager releases the worker's lease and drops it from
	// the connected set instead of granting another.
	Deregister bool `json:"deregister,omitempty"`
}

// PollResponse grants a lease, asks the worker to retry later, or
// declares the campaign done.
type PollResponse struct {
	// V is the manager's protocol version.
	V int `json:"v"`
	// Lease is the granted lease, nil when no shard is pending.
	Lease *Lease `json:"lease,omitempty"`
	// Done reports that every shard has completed; the worker should
	// deregister.
	Done bool `json:"done"`
	// RetryMS is the manager's suggested wait before the next poll when
	// no lease was granted (the client adds backoff and jitter on top).
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// HeartbeatRequest renews the worker's liveness and its leases.
type HeartbeatRequest struct {
	// V is the sender's protocol version.
	V int `json:"v"`
	// WorkerID is the registered worker identity.
	WorkerID int `json:"worker_id"`
	// Token authenticates against the manager's auth token.
	Token string `json:"token,omitempty"`
	// Epoch echoes the registration epoch; a stale value gets HTTP 410.
	Epoch uint64 `json:"epoch,omitempty"`
	// Lease is the ID of the lease the worker holds, renewed for a fresh
	// TTL; 0 when it holds none.
	Lease uint64 `json:"lease,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// V is the manager's protocol version.
	V int `json:"v"`
	// OK is false when the manager does not know the worker (e.g. it was
	// declared dead); the worker should re-register.
	OK bool `json:"ok"`
}

// ErrorResponse is the JSON body of every non-200 manager reply.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// writeJSON marshals v with the given HTTP status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError replies with an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a request body into v, bounding the body size.
func readJSON(r *http.Request, v any) error {
	const maxBody = 64 << 20 // corpus payloads can be large, but bounded
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBody))
	return dec.Decode(v)
}

// httpError is a non-200 manager reply, carrying the status code so the
// worker can route on it: 410 means "re-register" (unknown worker or
// stale epoch), 403 means the auth token is wrong (fatal), anything else
// is a transient failure to retry with backoff.
type httpError struct {
	// status is the HTTP status code of the reply.
	status int
	// msg is the ErrorResponse body text (may be empty).
	msg string
	// url is the request URL, for context.
	url string
}

// Error renders the failure with its status code.
func (e *httpError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("dist: %s: %s (HTTP %d)", e.url, e.msg, e.status)
	}
	return fmt.Sprintf("dist: %s: HTTP %d", e.url, e.status)
}

// errStatus extracts the HTTP status from an httpError, 0 otherwise.
func errStatus(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return 0
}

// postJSON is the worker-side RPC helper: POST in as JSON, decode a 200
// reply into out, surface ErrorResponse bodies as *httpError.
func postJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: marshal %T: %w", in, err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: post %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return &httpError{status: resp.StatusCode, msg: er.Error, url: url}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: decode %s reply: %w", url, err)
	}
	return nil
}
