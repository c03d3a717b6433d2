package dist

import (
	"time"

	"ozz/internal/obs"
)

// endpointNames are the fabric's HTTP endpoints in the order their
// ozz_dist_http_duration_seconds children are pre-registered.
var endpointNames = []string{"register", "poll", "sync", "report", "heartbeat"}

// distObs bundles the fabric's metric handles. The same families serve
// both sides: on the manager they count the whole fleet, on a worker they
// count that worker's client-side traffic (registration is get-or-create,
// so sharing a registry between a worker and its local pool is safe).
// Incrementing these never influences campaign results — shard execution
// stays a function of the shard seed alone.
type distObs struct {
	reg *obs.Registry
	ev  *obs.EventLog

	workers       *obs.Gauge
	registrations *obs.Counter

	syncBytesIn, syncBytesOut *obs.Counter
	syncProgsIn, syncProgsOut *obs.Counter

	// httpDur children, indexed like endpointNames.
	httpRegister, httpPoll, httpSync, httpReport, httpHeartbeat *obs.Histogram

	leasesGranted, leasesCompleted, leaseReassigns *obs.Counter
	heartbeatMisses                                *obs.Counter
	leasesPending                                  *obs.Gauge

	corpusProgs            *obs.Gauge
	reportsNew, reportsDup *obs.Counter

	// Durability (write-ahead log + snapshots).
	walRecords  map[string]*obs.Counter // by record type
	walBytes    *obs.Counter
	walReplays  *obs.Counter
	walReplayed *obs.Counter
	walTorn     *obs.Counter
	walSnaps    *obs.Counter

	campaignEpoch *obs.Gauge
}

// newDistObs registers the fabric's metric families on reg (creating every
// labeled child up front so a scrape is complete before any traffic) and
// attaches the optional event log.
func newDistObs(reg *obs.Registry, ev *obs.EventLog) *distObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &distObs{reg: reg, ev: ev}
	d.workers = reg.Gauge("ozz_dist_workers_connected",
		"Workers currently registered and heartbeating with the manager.")
	d.registrations = reg.Counter("ozz_dist_registrations_total",
		"Worker registrations accepted (re-registrations count again).")

	bytes := reg.CounterVec("ozz_dist_sync_bytes_total",
		"Corpus-encoded program payload bytes moved by /sync, by direction relative to this process.", "direction")
	d.syncBytesIn = bytes.With("in")
	d.syncBytesOut = bytes.With("out")
	progs := reg.CounterVec("ozz_dist_sync_programs_total",
		"Programs merged from /sync payloads, by direction relative to this process.", "direction")
	d.syncProgsIn = progs.With("in")
	d.syncProgsOut = progs.With("out")

	durs := reg.HistogramVec("ozz_dist_http_duration_seconds",
		"Wall-clock duration of one fabric HTTP exchange, seconds (handler-side on the manager, round-trip on workers).",
		obs.DurationBuckets(), "endpoint")
	children := make([]*obs.Histogram, len(endpointNames))
	for i, e := range endpointNames {
		children[i] = durs.With(e)
	}
	d.httpRegister, d.httpPoll, d.httpSync, d.httpReport, d.httpHeartbeat =
		children[0], children[1], children[2], children[3], children[4]

	d.leasesGranted = reg.Counter("ozz_dist_leases_granted_total",
		"Work leases granted to workers (a reassigned shard grants a fresh lease).")
	d.leasesCompleted = reg.Counter("ozz_dist_leases_completed_total",
		"Work leases acknowledged complete by their worker.")
	d.leaseReassigns = reg.Counter("ozz_dist_lease_reassignments_total",
		"Leases whose shard was requeued because the lease expired or its worker died.")
	d.heartbeatMisses = reg.Counter("ozz_dist_heartbeat_misses_total",
		"Workers declared dead after missing their heartbeat deadline.")
	d.leasesPending = reg.Gauge("ozz_dist_leases_pending",
		"Shards waiting in the manager's queue for a worker.")

	d.corpusProgs = reg.Gauge("ozz_dist_corpus_programs",
		"Programs in this process's merged fabric corpus (global on the manager, local aggregate on a worker).")
	outcomes := reg.CounterVec("ozz_dist_reports_merged_total",
		"Report-set merge attempts at the manager's global dedup, by outcome.", "outcome")
	d.reportsNew = outcomes.With("new")
	d.reportsDup = outcomes.With("duplicate")

	walRecs := reg.CounterVec("ozz_dist_wal_records_total",
		"Write-ahead-log records appended, by record type (epoch, worker, complete, program, report).", "type")
	d.walRecords = make(map[string]*obs.Counter, len(walRecordTypes))
	for _, t := range walRecordTypes {
		d.walRecords[t] = walRecs.With(t)
	}
	d.walBytes = reg.Counter("ozz_dist_wal_bytes_total",
		"Bytes appended to the campaign write-ahead log (including record framing).")
	d.walReplays = reg.Counter("ozz_dist_wal_replays_total",
		"Campaign recoveries that restored prior state from a snapshot and/or write-ahead log at manager start.")
	d.walReplayed = reg.Counter("ozz_dist_wal_replayed_records_total",
		"Write-ahead-log records applied during recovery replays.")
	d.walTorn = reg.Counter("ozz_dist_wal_torn_records_total",
		"Torn write-ahead-log tails (a record truncated mid-append by a crash) dropped during recovery.")
	d.walSnaps = reg.Counter("ozz_dist_wal_snapshots_total",
		"Campaign snapshots written to the state directory (periodic compactions, campaign completion and shutdown).")
	d.campaignEpoch = reg.Gauge("ozz_dist_campaign_epoch",
		"Current registration epoch of the campaign (bumped on every crash-restart recovery).")
	return d
}

// observe records one exchange duration.
func observe(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
