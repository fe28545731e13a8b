package httpapi

// Durability glue: when the server runs with a data directory, the
// engine's CommitHook journals every update through the write-ahead
// log before it touches the store, and POST /checkpoint lets an
// operator snapshot + truncate on demand (DESIGN.md §12).

import (
	"fmt"
	"net/http"

	"repro/internal/sparql"
	"repro/internal/wal"
)

// AttachWAL wires the write-ahead log into the server: every update
// operation's quad delta is journaled (log first, apply second) and
// POST /checkpoint becomes live. Call it once, before serving.
func (s *Server) AttachWAL(l *wal.Log) {
	s.wal = l
	// Leaders never swap their store, so hooking the engine loaded here
	// is safe: SwapStore is only driven by a follower, which runs
	// without a WAL attached.
	s.engine().CommitHook = func(muts []sparql.Mutation, apply func() error) error {
		return l.Commit(batchOf(muts), apply)
	}
}

// batchOf converts the engine's quad delta into a WAL batch.
func batchOf(muts []sparql.Mutation) wal.Batch {
	ops := make([]wal.Op, len(muts))
	for i, m := range muts {
		kind := wal.OpDelete
		if m.Insert {
			kind = wal.OpInsert
		}
		ops[i] = wal.Op{Kind: kind, Model: m.Model, Quad: m.Quad}
	}
	return wal.Batch{Ops: ops}
}

// handleCheckpoint snapshots the store and truncates the log. Updates
// block for the duration; the response reports the checkpoint size and
// wall time. ?mode=incremental folds the log into a delta file instead
// of rewriting the full snapshot (the log may promote it to a full
// checkpoint per its chain policy — the response says which happened).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "method", "method not allowed")
		return
	}
	if s.wal == nil {
		writeJSONError(w, http.StatusConflict, "no-wal",
			"server is running without a data directory; start with -data-dir to enable checkpoints")
		return
	}
	var err error
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "full":
		err = s.wal.Checkpoint(s.engine().Store())
	case "incremental":
		err = s.wal.CheckpointIncremental(s.engine().Store())
	default:
		writeJSONError(w, http.StatusBadRequest, "bad-mode",
			fmt.Sprintf("unknown checkpoint mode %q; want full or incremental", mode))
		return
	}
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, "checkpoint", err.Error())
		return
	}
	st := s.wal.Stats()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"checkpointBytes":%d,"durationSeconds":%g,"walBytes":%d,"walRecords":%d,`+
		`"fullCheckpoints":%d,"incrementalCheckpoints":%d,"deltaChainLen":%d,"deltaChainBytes":%d}`+"\n",
		st.LastCheckpointBytes, st.LastCheckpointDuration.Seconds(), st.WalBytes, st.WalRecords,
		st.FullCheckpoints, st.IncrementalCheckpoints, st.DeltaChainLen, st.DeltaChainBytes)
}
