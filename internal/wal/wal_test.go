package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

func snapshotBytes(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustOpen(t *testing.T, dir string, opts Options) (*store.Store, *Log) {
	t.Helper()
	st, l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return st, l
}

func insertOp(model, s, p, o string) Op {
	return Op{Kind: OpInsert, Model: model, Quad: rdf.Quad{
		S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewLiteral(o)}}
}

// commit mirrors the engine glue: journal, then apply.
func commit(t *testing.T, l *Log, st *store.Store, ops ...Op) {
	t.Helper()
	err := l.Commit(Batch{Ops: ops}, func() error {
		return ApplyBatch(st, Batch{Ops: ops})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	commit(t, l, st,
		insertOp("m", "http://b", "http://p", "2"),
		Op{Kind: OpDelete, Model: "m", Quad: rdf.Quad{
			S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewLiteral("1")}})
	want := snapshotBytes(t, st)
	ws := l.Stats()
	if ws.WalRecords != 2 || ws.WalBytes == 0 {
		t.Fatalf("stats after 2 commits: %+v", ws)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot diverges:\n got: %s\nwant: %s", got, want)
	}
	rs := l2.Stats()
	if rs.ReplayedRecords != 2 || rs.TornBytesDropped != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	// Sequence numbers continue past the replayed tail.
	if rs.Seq != ws.Seq {
		t.Fatalf("next seq = %d, want %d", rs.Seq, ws.Seq)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if ws := l.Stats(); ws.WalBytes != 0 || ws.WalRecords != 0 || ws.Checkpoints != 1 {
		t.Fatalf("stats after checkpoint: %+v", ws)
	}
	// Mutations after the checkpoint land in the fresh log.
	commit(t, l, st, insertOp("m", "http://b", "http://p", "2"))
	want := snapshotBytes(t, st)
	l.Close()

	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint+tail recovery diverges")
	}
	if rs := l2.Stats(); rs.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (the post-checkpoint commit)", rs.ReplayedRecords)
	}
}

// writeLegacyCheckpoint leaves dir as an old directory would be: st as
// a text checkpoint.nq and no checkpoint.bin.
func writeLegacyCheckpoint(t *testing.T, dir string, st *store.Store) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), snapshotBytes(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, checkpointBinFile)); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// TestOpenRestoresLegacyTextCheckpoint: a directory whose only
// checkpoint is a legacy checkpoint.nq opens with its data, and the
// first checkpoint after that is a full binary one that replaces it.
func TestOpenRestoresLegacyTextCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"), insertOp("m", "http://b", "http://p", "2"))
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	l.Close()
	writeLegacyCheckpoint(t, dir, st)

	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if !bytes.Equal(snapshotBytes(t, st2), snapshotBytes(t, st)) {
		t.Fatal("legacy text checkpoint did not restore")
	}
	commit(t, l2, st2, insertOp("m", "http://c", "http://p", "3"))
	want := snapshotBytes(t, st2)
	// No binary base yet, so an incremental request promotes to full.
	if err := l2.CheckpointIncremental(st2); err != nil {
		t.Fatal(err)
	}
	if ws := l2.Stats(); ws.FullCheckpoints != 1 || ws.IncrementalCheckpoints != 0 {
		t.Fatalf("checkpoint over a legacy base: %+v", ws)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); !os.IsNotExist(err) {
		t.Fatalf("legacy checkpoint.nq survived the binary checkpoint: %v", err)
	}
	l2.Close()

	st3, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if !bytes.Equal(snapshotBytes(t, st3), want) {
		t.Fatal("recovery after replacing the legacy checkpoint diverges")
	}
}

func TestOpenRemovesStaleCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	want := snapshotBytes(t, st)
	l.Close()
	// A checkpoint that crashed before its rename leaves a tmp file; it
	// must be ignored and removed, not restored.
	if err := os.WriteFile(filepath.Join(dir, checkpointTmp), []byte("# pgrdf-snapshot v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("stale checkpoint tmp changed recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmp)); !os.IsNotExist(err) {
		t.Fatalf("stale tmp still present: %v", err)
	}
}

func TestReplaySkipsDeleteOnAbsentModel(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	// Journal a delete against a model that recovery will never have
	// materialized (nothing else touches it).
	q := rdf.Quad{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewLiteral("1")}
	st.Model("ghost")
	commit(t, l, st, Op{Kind: OpDelete, Model: "ghost", Quad: q})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	l.Close()

	st2, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if st2.Len() != 1 {
		t.Fatalf("recovered %d quads, want 1", st2.Len())
	}
	if st2.View().LookupModel("ghost") != store.NoID {
		t.Fatal("replay materialized a model from a skipped delete")
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	want := snapshotBytes(t, st)
	l.Close()
	logPath := filepath.Join(dir, logFile)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, data[:len(data)/2]...) // half a record re-appended
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("torn tail changed recovery")
	}
	rs := l2.Stats()
	if rs.TornBytesDropped != int64(len(data)/2) {
		t.Fatalf("dropped %d torn bytes, want %d", rs.TornBytesDropped, len(data)/2)
	}
	// The file itself must be truncated so the next append cannot bury
	// the torn fragment mid-log.
	if fi, _ := os.Stat(logPath); fi.Size() != int64(len(data)) {
		t.Fatalf("log size %d after open, want %d", fi.Size(), len(data))
	}
	// And appending must still work and replay cleanly.
	commit(t, l2, st2, insertOp("m", "http://b", "http://p", "2"))
	want2 := snapshotBytes(t, st2)
	l2.Close()
	st3, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := snapshotBytes(t, st3); !bytes.Equal(got, want2) {
		t.Fatal("append-after-torn-recovery diverges")
	}
}

func TestInjectedCrashIsStickyAndAbortsCommit(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	fi := NewFaultInjector()
	l.SetFaultInjector(fi)
	fi.FailAfterBytes(3) // the next record tears after 3 bytes

	applied := false
	err := l.Commit(Batch{Ops: []Op{insertOp("m", "http://b", "http://p", "2")}}, func() error {
		applied = true
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	if applied {
		t.Fatal("apply ran after a failed append — the mutation would exist in memory but not on disk")
	}
	// The writer is now broken: further commits must fail, not bury the
	// torn record.
	if err := l.Commit(Batch{Ops: []Op{insertOp("m", "http://c", "http://p", "3")}}, nil); err == nil {
		t.Fatal("append succeeded on a broken writer")
	}
	want := snapshotBytes(t, st)
	l.Close()

	// Recovery drops the 3 torn bytes and lands on the applied state.
	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("crash recovery diverges from pre-crash state")
	}
	if rs := l2.Stats(); rs.TornBytesDropped != 3 || rs.ReplayedRecords != 1 {
		t.Fatalf("recovery stats: %+v", rs)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, l := mustOpen(t, dir, Options{Sync: policy, SyncEvery: 10 * time.Millisecond})
			commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
			want := snapshotBytes(t, st)
			if err := l.Sync(); err != nil { // explicit flush works under every policy
				t.Fatal(err)
			}
			l.Close()
			st2, _ := mustOpen(t, dir, Options{Sync: policy})
			if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
				t.Fatal("recovery diverges")
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	l.StartCheckpointer(st, 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil { // stops the checkpointer
		t.Fatal(err)
	}
	st2, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if st2.Len() != st.Len() {
		t.Fatalf("recovered %d quads, want %d", st2.Len(), st.Len())
	}
}
