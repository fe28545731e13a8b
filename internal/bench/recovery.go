package bench

// Recovery benchmark (ISSUE 5 acceptance): time writing a ~1M-quad
// checkpoint, restoring it, and replaying a log tail on top — the two
// halves of wal.Open's crash-recovery path. Emitted as
// BENCH_recovery.json by `benchpaper -recoverybench`.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
	"repro/internal/wal"
)

// RecoveryReport is the payload of BENCH_recovery.json. The unprefixed
// checkpoint columns measure the binary checkpoint through wal.Open;
// the text_ columns time store.Snapshot and store.Restore of the same
// store in the sectioned N-Quads format, and RestoreSpeedup is the
// ratio between the two restore times.
type RecoveryReport struct {
	// Dataset shape.
	Quads       int   `json:"quads"`
	TailRecords int64 `json:"tail_records"`

	// On-disk sizes.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	WalBytes        int64 `json:"wal_bytes"`

	// Phase timings (binary checkpoint format).
	CheckpointWriteMS   float64 `json:"checkpoint_write_ms"`
	CheckpointRestoreMS float64 `json:"checkpoint_restore_ms"`
	TotalRecoveryMS     float64 `json:"total_recovery_ms"`
	ReplayMS            float64 `json:"replay_ms"`

	// Legacy text format over the same store, and the ratio of text to
	// binary restore time.
	TextCheckpointBytes   int64   `json:"text_checkpoint_bytes"`
	TextCheckpointWriteMS float64 `json:"text_checkpoint_write_ms"`
	TextRestoreMS         float64 `json:"text_restore_ms"`
	RestoreSpeedup        float64 `json:"restore_speedup"`

	// Incremental checkpoint of the replayed tail: fold+publish time,
	// delta size on disk, and a full recovery (base restore + delta
	// replay) with the folded tail.
	IncrCheckpointMS float64 `json:"incr_checkpoint_ms"`
	DeltaBytes       int64   `json:"delta_bytes"`
	IncrRecoveryMS   float64 `json:"incr_recovery_ms"`

	// Derived rates.
	RestoreQuadsPerSec float64 `json:"restore_quads_per_sec"`
	ReplayRecsPerSec   float64 `json:"replay_recs_per_sec"`
}

// recoveryIndexes matches the NG-scheme serving configuration (the
// Oracle default pair plus the graph-leading index).
var recoveryIndexes = []string{"PCSGM", "PSCGM", "GSPCM"}

// RecoveryBench builds an NG-scheme Twitter dataset of roughly
// quadTarget quads in a fresh durability directory, checkpoints it,
// journals tailRecords single-insert commits, then closes and reopens
// the directory twice — once with an empty log (pure checkpoint
// restore) and once with the tail (restore + replay) — reporting the
// timings of each phase.
func RecoveryBench(ctx context.Context, quadTarget int, tailRecords int) (*RecoveryReport, error) {
	if quadTarget < 1 {
		quadTarget = 1_000_000
	}
	if tailRecords < 1 {
		tailRecords = 10_000
	}
	dir, err := os.MkdirTemp("", "pgrdf-recoverybench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Probe a small generation to find the scale that lands near the
	// quad target (quads grow linearly with the ego count).
	conv := pgrdf.NewConverter(pgrdf.NG)
	probe := conv.Convert(twitter.Generate(twitter.PaperConfig().Scale(0.01)))
	probeQuads := len(probe.Topology) + len(probe.NodeKV) + len(probe.EdgeKV)
	scale := 0.01 * float64(quadTarget) / float64(probeQuads)
	if scale > 1 {
		scale = 1
	}
	ds := conv.Convert(twitter.Generate(twitter.PaperConfig().Scale(scale)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &RecoveryReport{TailRecords: int64(tailRecords)}

	// Load and checkpoint. SyncOff: the bench measures recovery, not
	// fsync latency, and keeps CI runtime flat across disk types. The
	// text leg snapshots the same loaded store into a sibling file, so
	// both formats encode identical data.
	textPath := filepath.Join(dir, "text-snapshot.nq")
	err = withLog(dir, func(st *store.Store, l *wal.Log) error {
		if _, err := pgrdf.LoadPartitioned(st, ds, "pg"); err != nil {
			return err
		}
		rep.Quads = st.View().Len()
		start := time.Now()
		if err := l.Checkpoint(st); err != nil {
			return fmt.Errorf("recoverybench: checkpoint: %w", err)
		}
		rep.CheckpointWriteMS = msSince(start)
		rep.CheckpointBytes = l.Stats().LastCheckpointBytes

		start = time.Now()
		n, err := writeTextSnapshot(textPath, st)
		if err != nil {
			return fmt.Errorf("recoverybench: text snapshot: %w", err)
		}
		rep.TextCheckpointWriteMS = msSince(start)
		rep.TextCheckpointBytes = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: reopen with an empty log — pure checkpoint restore —
	// then journal the tail: single-insert commits into the node-KV
	// partition, exactly what the serve path writes per update. The GC
	// runs before every timed open so one leg's garbage (a whole store
	// image per snapshot or restore) is not collected on another leg's
	// clock.
	runtime.GC()
	start := time.Now()
	err = withLog(dir, func(st *store.Store, l *wal.Log) error {
		rep.CheckpointRestoreMS = msSince(start)
		name := rdf.NewIRI(rdf.KeyNS + "name")
		for i := 0; i < tailRecords; i++ {
			q := rdf.Quad{
				S: rdf.NewIRI(fmt.Sprintf("http://pg/bench%d", i)),
				P: name,
				O: rdf.NewLiteral(fmt.Sprintf("tail %d", i)),
			}
			b := wal.Batch{Ops: []wal.Op{{Kind: wal.OpInsert, Model: "pg_nodekv", Quad: q}}}
			err := l.Commit(b, func() error {
				_, err := st.Insert("pg_nodekv", q)
				return err
			})
			if err != nil {
				return fmt.Errorf("recoverybench: tail commit %d: %w", i, err)
			}
		}
		if err := l.Sync(); err != nil {
			return err
		}
		rep.WalBytes = l.Stats().WalBytes
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("recoverybench: restore+tail: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: reopen with the tail — restore + replay.
	runtime.GC()
	start = time.Now()
	st2, l2, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: recoveryIndexes})
	if err != nil {
		return nil, fmt.Errorf("recoverybench: recovery: %w", err)
	}
	rep.TotalRecoveryMS = msSince(start)
	defer l2.Close()
	if got := l2.Stats().ReplayedRecords; got != int64(tailRecords) {
		return nil, fmt.Errorf("recoverybench: replayed %d records, want %d", got, tailRecords)
	}
	if got, want := st2.View().Len(), rep.Quads+tailRecords; got != want {
		return nil, fmt.Errorf("recoverybench: recovered %d quads, want %d", got, want)
	}

	// Phase 3: fold the replayed tail into a delta file, then recover
	// once more — base restore plus delta replay.
	start = time.Now()
	if err := l2.CheckpointIncremental(st2); err != nil {
		return nil, fmt.Errorf("recoverybench: incremental checkpoint: %w", err)
	}
	rep.IncrCheckpointMS = msSince(start)
	ws := l2.Stats()
	rep.DeltaBytes = ws.DeltaChainBytes
	if ws.IncrementalCheckpoints != 1 || ws.DeltaChainLen != 1 {
		return nil, fmt.Errorf("recoverybench: incremental checkpoint stats: %+v", ws)
	}
	if err := l2.Close(); err != nil {
		return nil, err
	}
	runtime.GC()
	start = time.Now()
	err = withLog(dir, func(st *store.Store, _ *wal.Log) error {
		rep.IncrRecoveryMS = msSince(start)
		if got, want := st.View().Len(), rep.Quads+tailRecords; got != want {
			return fmt.Errorf("recoverybench: incremental recovery got %d quads, want %d", got, want)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Text leg last: its restore is an order of magnitude slower than
	// every binary phase, so it gets the tail of the run.
	runtime.GC()
	start = time.Now()
	textSt, err := readTextSnapshot(textPath)
	if err != nil {
		return nil, fmt.Errorf("recoverybench: text restore: %w", err)
	}
	rep.TextRestoreMS = msSince(start)
	if got := textSt.View().Len(); got != rep.Quads {
		return nil, fmt.Errorf("recoverybench: text restore got %d quads, want %d", got, rep.Quads)
	}

	rep.ReplayMS = rep.TotalRecoveryMS - rep.CheckpointRestoreMS
	if rep.ReplayMS < 0 {
		rep.ReplayMS = 0
	}
	if rep.CheckpointRestoreMS > 0 {
		rep.RestoreQuadsPerSec = float64(rep.Quads) / (rep.CheckpointRestoreMS / 1000)
	}
	if rep.ReplayMS > 0 {
		rep.ReplayRecsPerSec = float64(tailRecords) / (rep.ReplayMS / 1000)
	}
	if rep.CheckpointRestoreMS > 0 {
		rep.RestoreSpeedup = rep.TextRestoreMS / rep.CheckpointRestoreMS
	}
	return rep, nil
}

// withLog opens the durability directory (SyncOff, NG indexes), runs
// fn, and closes the log on every path, surfacing the close error.
func withLog(dir string, fn func(*store.Store, *wal.Log) error) (err error) {
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: recoveryIndexes})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()
	return fn(st, l)
}

// writeTextSnapshot writes st to path in the text snapshot format — the
// comparison leg of the bench — and returns the file's size.
func writeTextSnapshot(path string, st *store.Store) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := st.View().Snapshot(bw); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// readTextSnapshot restores a store from a text snapshot file.
func readTextSnapshot(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.Restore(bufio.NewReaderSize(f, 1<<20))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
