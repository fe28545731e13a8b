package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

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
	want := storetest.Fingerprint(st.View())
	ws := l.Stats()
	if ws.WalRecords != 2 || ws.WalBytes == 0 {
		t.Fatalf("stats after 2 commits: %+v", ws)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := storetest.Fingerprint(st2.View()); got != want {
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
	want := storetest.Fingerprint(st.View())
	l.Close()

	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := storetest.Fingerprint(st2.View()); got != want {
		t.Fatalf("checkpoint+tail recovery diverges")
	}
	if rs := l2.Stats(); rs.ReplayedRecords != 1 {
		t.Fatalf("replayed %d records, want 1 (the post-checkpoint commit)", rs.ReplayedRecords)
	}
}

// TestOpenRefusesLegacyTextCheckpoint: a directory whose only
// checkpoint is a checkpoint.nq written by a release that still had the
// text snapshot format fails Open with ErrLegacyCheckpoint naming the
// file, and leaves the directory as it was — never a fresh empty store
// over data the operator believes is durable. Once the directory has a
// checkpoint.bin, that is the checkpoint and the text file is ignored.
func TestOpenRefusesLegacyTextCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"), insertOp("m", "http://b", "http://p", "2"))
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(st.View())
	l.Close()

	bin := filepath.Join(dir, checkpointBinFile)
	aside := filepath.Join(t.TempDir(), checkpointBinFile)
	if err := os.Rename(bin, aside); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, legacyTextCheckpoint)
	text := "# pgrdf-snapshot v1\n# indexes PCSGM,PSCGM\n# model m\n" +
		"<http://a> <http://p> \"1\" .\n<http://b> <http://p> \"2\" .\n"
	if err := os.WriteFile(legacy, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	st2, l2, err := Open(dir, Options{Sync: SyncAlways})
	if err == nil {
		l2.Close()
		t.Fatalf("Open succeeded over a legacy text checkpoint (%d quads)", st2.Len())
	}
	if !errors.Is(err, ErrLegacyCheckpoint) || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("err = %v, want ErrLegacyCheckpoint naming %s", err, legacy)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused Open changed the directory: %v -> %v", before, after)
	}

	if err := os.Rename(aside, bin); err != nil {
		t.Fatal(err)
	}
	st3, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := storetest.Fingerprint(st3.View()); got != want {
		t.Fatalf("recovery beside a leftover checkpoint.nq diverges:\n got: %s\nwant: %s", got, want)
	}
}

// dirListing maps each file in dir to its size.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

func TestOpenRemovesStaleCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	want := storetest.Fingerprint(st.View())
	l.Close()
	// A checkpoint that crashed before its rename leaves a tmp file; it
	// must be ignored and removed, not restored.
	if err := os.WriteFile(filepath.Join(dir, checkpointTmp), []byte("# pgrdf-snapshot v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := storetest.Fingerprint(st2.View()); got != want {
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
	want := storetest.Fingerprint(st.View())
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
	if got := storetest.Fingerprint(st2.View()); got != want {
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
	want2 := storetest.Fingerprint(st2.View())
	l2.Close()
	st3, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := storetest.Fingerprint(st3.View()); got != want2 {
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
	want := storetest.Fingerprint(st.View())
	l.Close()

	// Recovery drops the 3 torn bytes and lands on the applied state.
	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	if got := storetest.Fingerprint(st2.View()); got != want {
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
			want := storetest.Fingerprint(st.View())
			if err := l.Sync(); err != nil { // explicit flush works under every policy
				t.Fatal(err)
			}
			l.Close()
			st2, _ := mustOpen(t, dir, Options{Sync: policy})
			if got := storetest.Fingerprint(st2.View()); got != want {
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
