package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ozz/internal/report"
)

// Durability layer: a write-ahead log plus periodic snapshots,
// stdlib-only, laid out as
//
//	<state-dir>/default/snapshot.json   last compacted full state
//	<state-dir>/default/wal.log         records since that snapshot
//
// The fixed subdirectory keeps the layout of earlier managers, which
// hosted several named campaigns side by side, so their state directories
// still resume; other subdirectories are ignored.
//
// Every state change that must survive a manager crash — a corpus
// program admission, a new global report, a shard completion, a worker
// registration, an epoch bump — appends and fsyncs one walRecord line
// before the handler replies. A restarted manager loads the snapshot, replays the
// log over it, truncates any torn final record (a crash mid-append), and
// bumps the epoch so workers re-register. Snapshots are written
// atomically (temp file + rename) every snapshotEvery records, at
// campaign completion and on Close, after which the log is reset.
//
// Leases are deliberately NOT journaled: shard execution is
// deterministic, so requeueing every in-flight shard at recovery and
// letting survivors re-run (or stale holders complete into the void) is
// both simpler and exactly as correct as replaying grants would be.
// Lease IDs are epoch-stamped (epoch<<32 | sequence) so an ID minted
// before a restart can never collide with one minted after.

// WAL record types, the T field of every walRecord line.
const (
	walEpoch    = "epoch"    // campaign (re)opened under a new epoch
	walWorker   = "worker"   // a worker registered
	walComplete = "complete" // a shard completed
	walProgram  = "program"  // a corpus program was admitted
	walReport   = "report"   // a new global report was merged
)

// walRecordTypes lists every record type, for metric pre-registration.
var walRecordTypes = []string{walEpoch, walWorker, walComplete, walProgram, walReport}

// walRecord is one WAL line: the record type, the CRC-32 (IEEE) of the
// payload bytes, and the payload itself. A record whose payload fails the
// checksum — or whose line is not valid JSON, or lacks its trailing
// newline — marks the torn tail of the log; replay stops there and
// truncates the file back to the last good record.
type walRecord struct {
	// T is the record type (walEpoch, walWorker, ...).
	T string `json:"t"`
	// CRC is the IEEE CRC-32 of the raw D bytes.
	CRC uint32 `json:"crc"`
	// D is the type-specific payload.
	D json.RawMessage `json:"d"`
}

// walEpochD is the walEpoch payload.
type walEpochD struct {
	// Epoch is the epoch the campaign opened under.
	Epoch uint64 `json:"epoch"`
}

// walWorkerD is the walWorker payload.
type walWorkerD struct {
	// ID is the assigned worker identity.
	ID int `json:"id"`
	// Name is the worker's advertised name.
	Name string `json:"name,omitempty"`
}

// walCompleteD is the walComplete payload.
type walCompleteD struct {
	// Shard is the completed shard's index.
	Shard int `json:"shard"`
}

// walProgramD is the walProgram payload.
type walProgramD struct {
	// Src is the program's canonical syzlang serialization.
	Src string `json:"src"`
}

// wal is the campaign's open write-ahead log.
type wal struct {
	f       *os.File
	records int // records appended since the last snapshot
	do      *distObs
}

// openWAL opens (creating if needed) the campaign's log for appending.
func openWAL(path string, do *distObs) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: open wal: %w", err)
	}
	return &wal{f: f, do: do}, nil
}

// append journals one record and fsyncs it, so an acknowledged admission
// survives power loss, not just a process crash. Append failures are
// surfaced to the caller (the campaign degrades to in-memory operation
// and warns, rather than failing fleet traffic over a full disk).
func (w *wal) append(t string, payload any) error {
	d, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("dist: wal marshal %s: %w", t, err)
	}
	line, err := json.Marshal(walRecord{T: t, CRC: crc32.ChecksumIEEE(d), D: d})
	if err != nil {
		return fmt.Errorf("dist: wal marshal record: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("dist: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dist: wal fsync: %w", err)
	}
	w.records++
	w.do.walRecords[t].Inc()
	w.do.walBytes.Add(uint64(len(line)))
	return nil
}

// reset truncates the log after a successful snapshot.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.records = 0
	return nil
}

// close releases the file handle.
func (w *wal) close() error { return w.f.Close() }

// replayWAL reads the log at path, invoking apply for every intact record
// in order. A torn tail — a final record that lacks its trailing newline,
// fails its checksum, or is not valid JSON — ends the replay and is
// truncated away so the next append starts from a clean record boundary;
// torn reports how many trailing bytes were dropped. A missing file
// replays zero records. Only I/O failures are errors: torn tails are the
// expected residue of a crash, not corruption to refuse.
func replayWAL(path string, apply func(t string, d json.RawMessage)) (replayed int, torn int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("dist: open wal for replay: %w", err)
	}
	defer f.Close()
	var good int64 // offset just past the last intact record's newline
	br := bufio.NewReaderSize(f, 64*1024)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			// A final line without its trailing newline is a write cut
			// exactly at the record boundary — the torn tail. It must not
			// be applied even when its JSON and CRC happen to check out:
			// the next O_APPEND write would concatenate onto it, and a
			// later replay would then discard that merged line plus
			// everything after it.
			break
		}
		if rerr != nil {
			return replayed, 0, fmt.Errorf("dist: wal replay: %w", rerr)
		}
		var rec walRecord
		if json.Unmarshal(line, &rec) != nil || rec.CRC != crc32.ChecksumIEEE(rec.D) {
			break
		}
		apply(rec.T, rec.D)
		replayed++
		good += int64(len(line))
	}
	st, err := f.Stat()
	if err != nil {
		return replayed, 0, err
	}
	if torn = st.Size() - good; torn > 0 {
		if err := os.Truncate(path, good); err != nil {
			return replayed, torn, fmt.Errorf("dist: truncate torn wal tail: %w", err)
		}
	}
	return replayed, torn, nil
}

// SnapshotFormat is the CampaignSnapshot schema version.
const SnapshotFormat = 1

// SnapshotWorker is one registered worker in a snapshot.
type SnapshotWorker struct {
	// ID is the worker identity.
	ID int `json:"id"`
	// Name is the worker's advertised name.
	Name string `json:"name,omitempty"`
}

// CampaignSnapshot is the complete durable state of the campaign: what a
// manager needs to resume it after a crash or on another host. The auth
// token is intentionally absent — it belongs to the manager's
// configuration, not to persisted state.
type CampaignSnapshot struct {
	// Format is the schema version (SnapshotFormat).
	Format int `json:"format"`
	// Name is the state subdirectory the snapshot lives in.
	Name string `json:"name"`
	// Epoch is the registration epoch the snapshot was taken under; a
	// manager restoring it opens at Epoch+1.
	Epoch uint64 `json:"epoch"`
	// Spec is the campaign configuration shipped to workers, including
	// the memory model name.
	Spec CampaignSpec `json:"spec"`
	// TotalSteps, ShardSteps, and Seed reproduce the shard plan.
	TotalSteps int   `json:"total_steps"`
	ShardSteps int   `json:"shard_steps"`
	Seed       int64 `json:"seed"`
	// Completed lists the indexes of finished shards, ascending.
	Completed []int `json:"completed,omitempty"`
	// NextWorker is the highest worker ID ever assigned.
	NextWorker int `json:"next_worker,omitempty"`
	// Workers are the registered workers (restored disconnected; live
	// ones re-register on their first stale-epoch reply).
	Workers []SnapshotWorker `json:"workers,omitempty"`
	// Corpus is the merged corpus in the streaming corpus encoding
	// (core.EncodePrograms), first-seen order.
	Corpus string `json:"corpus,omitempty"`
	// Reports are the globally deduplicated findings, first-seen order.
	Reports []*report.Report `json:"reports,omitempty"`
}

// writeSnapshotFile writes snap atomically and durably: temp file in the
// same directory, fsync, rename, then fsync the directory so the rename
// itself survives power loss.
func writeSnapshotFile(path string, snap *CampaignSnapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("dist: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(snap); err != nil {
		tmp.Close()
		return fmt.Errorf("dist: snapshot encode: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("dist: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("dist: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Not every filesystem supports fsync on a directory handle; the
	// rename is still atomic without it, so failures are non-fatal.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// readSnapshotFile loads a snapshot, reporting (nil, nil) when none
// exists yet.
func readSnapshotFile(path string) (*CampaignSnapshot, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: read snapshot: %w", err)
	}
	var snap CampaignSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("dist: decode snapshot: %w", err)
	}
	if snap.Format != SnapshotFormat {
		return nil, fmt.Errorf("dist: snapshot format %d, this build reads %d", snap.Format, SnapshotFormat)
	}
	return &snap, nil
}

// defaultCampaign names the state subdirectory holding the campaign's
// snapshot and log, and the snapshot's Name.
const defaultCampaign = "default"

// snapshotPath and walPath locate the campaign's two durable files under
// a state directory.
func snapshotPath(stateDir string) string {
	return filepath.Join(stateDir, defaultCampaign, "snapshot.json")
}
func walPath(stateDir string) string { return filepath.Join(stateDir, defaultCampaign, "wal.log") }
