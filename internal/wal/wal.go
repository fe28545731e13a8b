// Package wal gives the in-memory quad store a life beyond the
// process: a write-ahead log that journals every Update mutation,
// background checkpoints in the binary snapshot format, and
// replay-on-open crash recovery (DESIGN.md §12, §16).
//
// The durability directory holds:
//
//	checkpoint.bin  — a full store snapshot (store.SnapshotBinary)
//	wal.log         — framed mutation records appended since the last
//	                  checkpoint
//
// Open refuses a directory whose only checkpoint is a checkpoint.nq,
// the text snapshot older releases wrote (ErrLegacyCheckpoint), and one
// that holds a checkpoint.delta.N, an incremental fold of the log older
// releases chained onto checkpoint.bin (ErrDeltaCheckpoint).
//
// Commits are journaled log-first: the SPARQL engine publishes the quad
// delta of each Update operation through its CommitHook, the log
// appends (and, under SyncAlways, fsyncs) one record, and only then is
// the delta applied to the store. Open replays checkpoint + log tail
// and tolerates a torn final record, so a kill -9 at any byte recovers
// the store to exactly the last durably framed commit.
package wal

import (
	"errors"
	"time"

	"repro/internal/rdf"
)

// SyncPolicy controls when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record is durable before
	// the mutation is applied. The safest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncOff never fsyncs per commit; the OS decides. Records are
	// still written (unbuffered) per append, so only an OS/power crash
	// loses data — a process kill does not. The background
	// checkpointer's tick (StartCheckpointer) fsyncs the log, which
	// bounds that loss to one period.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "unknown"
}

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	case "interval":
		return 0, errors.New(`wal: the "interval" fsync policy is retired: -fsync off -checkpoint-every D fsyncs the log every D (and checkpoints it when due)`)
	}
	return 0, errors.New(`wal: unknown fsync policy (want "always" or "off")`)
}

// Options configures Open.
type Options struct {
	// Sync is the fsync policy for appended records.
	Sync SyncPolicy
	// Indexes configures the semantic-network indexes of a store
	// created for a directory with no checkpoint yet, on every open
	// until the first one. Ignored when a checkpoint exists — the
	// snapshot carries its indexes. Empty means store.DefaultIndexes.
	Indexes []string
}

// OpKind tags one journaled mutation.
type OpKind byte

const (
	// OpInsert asserts a quad into a concrete model.
	OpInsert OpKind = 1
	// OpDelete retracts a quad from a concrete model. Deletes issued
	// against a virtual model or the all-models dataset are journaled
	// once per member model, so the record always carries the concrete
	// model the replay must touch.
	OpDelete OpKind = 2
)

// Op is one journaled mutation: a quad asserted into or retracted from
// a concrete semantic model.
type Op struct {
	Kind  OpKind
	Model string
	Quad  rdf.Quad
}

// Batch is the quad delta of one Update operation, journaled and
// applied atomically: either the whole record is durably framed (and
// replays), or none of it does.
type Batch struct {
	Ops []Op
}

// Stats is a point-in-time view of the log, exported by /stats and the
// Prometheus /metrics endpoint.
type Stats struct {
	// WalBytes and WalRecords describe the live log tail (since the
	// last checkpoint truncation).
	WalBytes   int64
	WalRecords int64
	// Seq is the sequence number of the next record to append.
	Seq uint64
	// Checkpoints counts successful checkpoints; CheckpointErrors the
	// failed attempts (the log is never truncated on failure).
	Checkpoints      int64
	CheckpointErrors int64
	// LastCheckpointBytes and LastCheckpointDuration describe the most
	// recent successful checkpoint.
	LastCheckpointBytes    int64
	LastCheckpointDuration time.Duration
	// ReplayedRecords and TornBytesDropped describe the recovery that
	// opened this log: records replayed from the tail, and trailing
	// bytes discarded as a torn or corrupt final record.
	ReplayedRecords  int64
	TornBytesDropped int64
}
