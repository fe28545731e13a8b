package wal

// Replication surface (DESIGN.md §13). The write-ahead log doubles as
// a physical replication stream: a follower bootstraps from a store
// snapshot taken at a known log position, then tails the log bytes and
// applies each CRC-framed record through the same path crash recovery
// uses. Everything here is leader-side plumbing; the follower lives in
// internal/repl.
//
// The replication identity of a log is the pair (ID, Epoch):
//
//   - ID is a random token minted when the durability directory first
//     opens and persisted in repl.meta. Two directories with different
//     IDs share no history: a follower must never apply records across
//     an ID change.
//   - Epoch counts log truncations. Every checkpoint writes the whole
//     store into the snapshot and truncates the log, so byte offsets
//     restart from zero;
//     the epoch disambiguates "offset 4096 before the checkpoint" from
//     "offset 4096 after". A follower holding an older epoch cannot
//     tail the current log (the bytes it needs are gone) — unless it
//     had applied everything up to the truncation point, in which case
//     it may adopt the new epoch at offset zero (EpochStartSeq tells it
//     whether it qualifies).
//
// Record sequence numbers are made durable through repl.meta (NextSeq,
// written at each checkpoint) so they stay monotonic across restarts;
// a follower that observes a sequence regression is reading a
// different history and must re-bootstrap.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/store"
)

const replMetaFile = "repl.meta"

// ErrDiverged reports that a replication position does not belong to
// this log's current history: the epoch is not the live one, or the
// offset lies beyond the durable end of the log. The only safe
// response is to re-bootstrap from a fresh snapshot (or, for an epoch
// bump the caller is provably caught up with, to adopt the new epoch).
var ErrDiverged = errors.New("wal: replication position diverged from this log's history")

// ErrCheckpointCorrupt reports that the checkpoint file exists but
// cannot be restored — a parse or framing failure mid-file, not a
// missing file. Open fails loudly with it instead of quietly starting
// an empty store over unreadable data.
var ErrCheckpointCorrupt = errors.New("wal: corrupt checkpoint")

// ErrLegacyCheckpoint reports a data directory whose only checkpoint is
// a checkpoint.nq in the retired text snapshot format. Open names the
// file and fails rather than start an empty store over it; README says
// how to convert such a directory.
var ErrLegacyCheckpoint = errors.New("wal: legacy text checkpoint (convert the directory with an older release's pgrdf snapshot -format binary)")

// ErrDeltaCheckpoint reports a data directory holding a
// checkpoint.delta.N file, an incremental fold of the log that older
// releases chained onto checkpoint.bin. The commits it holds are no
// longer in wal.log, so Open names the file and fails rather than
// recover without them; README says how to convert such a directory.
var ErrDeltaCheckpoint = errors.New("wal: incremental delta checkpoint (open the directory with an older release and take a full checkpoint)")

// Position identifies a point in the replication stream.
type Position struct {
	// ID is the log's replication identity token.
	ID string `json:"id"`
	// Epoch counts log truncations; byte offsets are only meaningful
	// within one epoch.
	Epoch uint64 `json:"epoch"`
	// Offset is a byte offset into the current log: the end of the
	// last fully framed record at or before this position.
	Offset int64 `json:"offset"`
	// NextSeq is the sequence number of the next record to appear at
	// Offset.
	NextSeq uint64 `json:"nextSeq"`
	// EpochStartSeq is the sequence number of the first record of the
	// current epoch (the first append after the last truncation). A
	// follower whose next expected sequence equals it may adopt the
	// current epoch at offset zero without re-bootstrapping.
	EpochStartSeq uint64 `json:"epochStartSeq"`
}

// replMeta is the durable half of the replication identity, stored as
// JSON in repl.meta next to the checkpoint and the log.
type replMeta struct {
	ID string `json:"id"`
	// Epoch is incremented (and persisted) on every log truncation.
	Epoch uint64 `json:"epoch"`
	// NextSeq is the sequence number the first post-truncation append
	// will carry; on recovery it floors the log's sequence counter
	// so sequences stay monotonic even when the log is empty.
	NextSeq uint64 `json:"nextSeq"`
}

// loadOrCreateReplMeta reads repl.meta, minting a fresh identity for a
// directory that has none yet (a new deployment, or one created before
// replication existed).
func loadOrCreateReplMeta(dir string) (replMeta, error) {
	path := filepath.Join(dir, replMetaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		var idb [16]byte
		if _, err := rand.Read(idb[:]); err != nil {
			return replMeta{}, fmt.Errorf("wal: mint replication id: %w", err)
		}
		m := replMeta{ID: hex.EncodeToString(idb[:]), Epoch: 0, NextSeq: 1}
		if err := writeReplMeta(dir, m); err != nil {
			return replMeta{}, err
		}
		return m, nil
	}
	if err != nil {
		return replMeta{}, fmt.Errorf("wal: read replication meta: %w", err)
	}
	var m replMeta
	if err := json.Unmarshal(data, &m); err != nil || m.ID == "" {
		// The file is written atomically, so a bad parse is disk
		// corruption, not a torn write; regenerating the identity here
		// would silently orphan every follower.
		return replMeta{}, fmt.Errorf("wal: replication meta %s is corrupt: %v", path, err)
	}
	return m, nil
}

// writeReplMeta persists the replication identity atomically
// (tmp + rename, like the checkpoint itself).
func writeReplMeta(dir string, m replMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wal: encode replication meta: %w", err)
	}
	tmp := filepath.Join(dir, replMetaFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("wal: write replication meta: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, replMetaFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publish replication meta: %w", err)
	}
	syncDir(dir)
	return nil
}

// positionLocked builds the current position; the caller holds l.mu.
//
//pgrdf:locks mu
func (l *Log) positionLocked() Position {
	return Position{
		ID:            l.replID,
		Epoch:         l.epoch,
		Offset:        l.off.Load(),
		NextSeq:       l.seq.Load(),
		EpochStartSeq: l.epochStartSeq,
	}
}

// Position returns the log's current replication position: the durable
// end of the log and the identity a follower must present to tail it.
func (l *Log) Position() Position {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.positionLocked()
}

// BeginSnapshot acquires the commit lock and returns the position the
// store is at: no commit can land until release is called, so a store
// snapshot streamed in between corresponds exactly to the returned
// position. Callers MUST call release (commits and checkpoints block
// until they do).
func (l *Log) BeginSnapshot() (pos Position, release func()) {
	l.mu.Lock()
	return l.positionLocked(), func() { l.mu.Unlock() }
}

// ReadLogAt returns up to max bytes of fully framed records starting
// at byte offset from of the given epoch, plus the current position.
// It returns ErrDiverged when the epoch is not the live one or the
// offset lies beyond the durable end of the log — the caller's view of
// history does not match this log, and tailing cannot continue. The
// returned slice may end mid-frame when max truncates it; the consumer
// decodes complete frames and re-requests the remainder.
func (l *Log) ReadLogAt(epoch uint64, from int64, max int) ([]byte, Position, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pos := l.positionLocked()
	if epoch != l.epoch || from < 0 || from > pos.Offset {
		return nil, pos, fmt.Errorf("%w: requested epoch %d offset %d, log is at epoch %d offset %d",
			ErrDiverged, epoch, from, pos.Epoch, pos.Offset)
	}
	n := pos.Offset - from
	if n <= 0 {
		return nil, pos, nil
	}
	if max > 0 && n > int64(max) {
		n = int64(max)
	}
	buf := make([]byte, n)
	if _, err := l.f.ReadAt(buf, from); err != nil {
		return nil, pos, fmt.Errorf("wal: read log at offset %d: %w", from, err)
	}
	return buf, pos, nil
}

// WakeChan returns a channel that is closed the next time the log
// grows or is truncated. Long-poll tailers grab the channel, re-check
// the position, and block on it; the grab-before-check order means a
// record landing in between is never missed.
func (l *Log) WakeChan() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return l.wake
}

// wakeLocked releases every WakeChan waiter; the caller holds l.mu.
//
//pgrdf:locks mu
func (l *Log) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// ApplyBatch applies one journaled batch to the store as one
// store.Apply — the shared apply path of crash recovery and follower
// replication, so a follower's readers see each leader operation
// entirely or not at all. Application is idempotent (duplicate inserts
// and absent deletes are no-ops) and tolerant of deletes against models
// the store never materialized. An error means nothing of the batch was
// applied; the caller must still treat its copy as suspect and
// re-bootstrap rather than continue.
func ApplyBatch(st *store.Store, b Batch) error {
	_, _, err := st.Apply(appendOps(make([]store.Op, 0, len(b.Ops)), b))
	return err
}

// appendOps appends the batch's operations in the store's terms.
func appendOps(ops []store.Op, b Batch) []store.Op {
	for _, op := range b.Ops {
		ops = append(ops, store.Op{Delete: op.Kind == OpDelete, Model: op.Model, Quad: op.Quad})
	}
	return ops
}

// DecodeFrames decodes every complete, CRC-verified record frame at
// the start of data, calling yield for each in order. It returns the
// number of bytes consumed by fully decoded frames and the last
// sequence number yielded; a trailing partial or corrupt frame stops
// decoding without error (the transport re-requests from consumed). A
// yield error aborts decoding and is returned with consumed covering
// only the frames yield accepted.
func DecodeFrames(data []byte, yield func(seq uint64, b Batch) error) (consumed int64, lastSeq uint64, err error) {
	return readRecords(bytes.NewReader(data), yield)
}
