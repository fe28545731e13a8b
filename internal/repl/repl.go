// Package repl implements WAL-shipping replication (DESIGN.md §13):
// a follower bootstraps from a leader's consistent store snapshot,
// tails the leader's write-ahead log over HTTP, applies each
// CRC-framed record through the same path crash recovery uses, and
// serves read-only queries against the result.
//
// The robustness contract:
//
//   - Every leader interaction runs under a per-request timeout, and
//     failures retry with jittered exponential backoff. The follower
//     never gives up; it keeps serving whatever it has.
//   - Tailing resumes from the last applied byte offset; frames are
//     CRC-verified again on the follower, and sequence numbers must
//     advance exactly one per record.
//   - Divergence — the leader restored from an older checkpoint, the
//     log truncated under the follower, a replication-identity change,
//     a sequence regression, or bytes that persistently fail to frame
//     — is detected and answered by re-bootstrapping from a fresh
//     snapshot, never by applying records from the wrong history.
//   - Degradation is explicit: while the leader is unreachable the
//     follower answers stale reads and reports its lag and a degraded
//     state through Status (surfaced in /stats and pgrdf_repl_*
//     metrics); operators can opt into failing stale reads with 503
//     via the staleness threshold.
package repl

import "repro/internal/wal"

// HTTP protocol surface shared by the leader (internal/httpapi) and
// the follower. All replication positions travel in headers so record
// bytes and snapshot streams stay uninterpreted on the wire.
const (
	// HeaderID carries wal.Position.ID.
	HeaderID = "X-Pgrdf-Repl-Id"
	// HeaderEpoch carries wal.Position.Epoch.
	HeaderEpoch = "X-Pgrdf-Repl-Epoch"
	// HeaderOffset carries wal.Position.Offset — on a snapshot
	// response, the log offset the snapshot corresponds to; on a tail
	// response, the durable end of the leader's log.
	HeaderOffset = "X-Pgrdf-Repl-Offset"
	// HeaderSeq carries wal.Position.NextSeq.
	HeaderSeq = "X-Pgrdf-Repl-Seq"
	// HeaderEpochStartSeq carries wal.Position.EpochStartSeq.
	HeaderEpochStartSeq = "X-Pgrdf-Repl-Epoch-Start-Seq"
)

// Diverged is the JSON body of the leader's 409 response to a tail
// request whose position does not belong to the leader's history. It
// carries the leader's current position so a caught-up follower can
// adopt a new epoch without re-bootstrapping.
type Diverged struct {
	Error    string       `json:"error"`
	Kind     string       `json:"kind"`
	Position wal.Position `json:"position"`
}
