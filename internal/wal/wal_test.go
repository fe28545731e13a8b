package wal

import (
	"bytes"
	"errors"
	"fmt"
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

// TestOpenRefusesDeltaCheckpoint: a directory that still holds a
// checkpoint.delta.N from a release with incremental delta checkpoints
// — whose commits are no longer in wal.log — fails Open with
// ErrDeltaCheckpoint naming the file, returns no store and is left as
// it was.
func TestOpenRefusesDeltaCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	commit(t, l, st, insertOp("m", "http://b", "http://p", "2"))
	l.Close()
	requireDeltaRefused(t, dir, legacyDelta(t))
}

// legacyDelta returns bytes shaped like an older release's delta
// checkpoint: its magic, a zeroed header and one frame.
func legacyDelta(t *testing.T) []byte {
	t.Helper()
	frame, err := encodeBatch(2, Batch{Ops: []Op{insertOp("m", "http://c", "http://p", "3")}})
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte("PGRDFDL1"), make([]byte, 12)...), frame...)
}

// requireDeltaRefused writes delta as dir's checkpoint.delta.000001 and
// requires Open to refuse the directory: ErrDeltaCheckpoint naming the
// file, no store, no log, and every file as it was.
func requireDeltaRefused(t *testing.T, dir string, delta []byte) {
	t.Helper()
	path := filepath.Join(dir, deltaPrefix+"000001")
	if err := os.WriteFile(path, delta, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	st, l, err := Open(dir, Options{Sync: SyncOff})
	if err == nil {
		l.Close()
		t.Fatalf("Open succeeded beside a delta checkpoint (%d quads)", st.Len())
	}
	if st != nil || l != nil {
		t.Fatalf("the refused Open returned a store or a log: %v", err)
	}
	if !errors.Is(err, ErrDeltaCheckpoint) || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want ErrDeltaCheckpoint naming %s", err, path)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused Open changed the directory: %v -> %v", before, after)
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
	// The log is now broken: further commits must fail, not bury the
	// torn record.
	if err := l.Commit(Batch{Ops: []Op{insertOp("m", "http://c", "http://p", "3")}}, nil); err == nil {
		t.Fatal("append succeeded on a broken log")
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

// TestCheckpointOnBrokenWriterKeepsEpoch: once an injected crash has
// broken the log, it cannot be truncated, so a Checkpoint and a
// due CheckpointIncremental must fail without moving the replication
// epoch: the in-memory position and repl.meta stay where the log is. A
// follower that adopted an advanced epoch at offset zero would read
// the old epoch's records.
func TestCheckpointOnBrokenWriterKeepsEpoch(t *testing.T) {
	for _, c := range []struct {
		name       string
		checkpoint func(*Log, *store.Store) error
	}{
		{"Checkpoint", (*Log).Checkpoint},
		{"CheckpointIncremental", (*Log).CheckpointIncremental},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
			commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
			fi := NewFaultInjector()
			l.SetFaultInjector(fi)
			fi.FailAfterBytes(3)
			if err := l.Commit(Batch{Ops: []Op{insertOp("m", "http://b", "http://p", "2")}}, nil); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("commit err = %v, want ErrInjectedCrash", err)
			}
			before := l.Position()
			metaBefore, err := loadOrCreateReplMeta(dir)
			if err != nil {
				t.Fatal(err)
			}
			// No checkpoint.bin yet, so the incremental request is due.
			if err := c.checkpoint(l, st); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("%s err = %v, want the log's ErrInjectedCrash", c.name, err)
			}
			if after := l.Position(); after != before {
				t.Errorf("position moved on a failed %s: %+v, was %+v", c.name, after, before)
			}
			metaAfter, err := loadOrCreateReplMeta(dir)
			if err != nil {
				t.Fatal(err)
			}
			if metaAfter != metaBefore {
				t.Errorf("repl.meta moved on a failed %s: %+v, was %+v", c.name, metaAfter, metaBefore)
			}
		})
	}
}

// TestSyncPolicies: a commit recovers under either policy. Under
// SyncOff with the background checkpointer — what -fsync off
// -checkpoint-every D runs — a tick fsyncs a log that is not due, so it
// holds no unsynced bytes afterwards without a checkpoint.
func TestSyncPolicies(t *testing.T) {
	cases := []struct {
		name   string
		policy SyncPolicy
		tick   time.Duration // StartCheckpointer's period; 0 = an explicit Sync
	}{
		{"always", SyncAlways, 0},
		{"off", SyncOff, 0},
		{"off-checkpointer", SyncOff, 10 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, l := mustOpen(t, dir, Options{Sync: c.policy})
			if c.tick > 0 {
				// Beside a checkpoint.bin a one-record log is not due.
				if err := l.Checkpoint(st); err != nil {
					t.Fatal(err)
				}
			}
			commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
			want := storetest.Fingerprint(st.View())
			if c.tick == 0 {
				if err := l.Sync(); err != nil { // explicit flush works under every policy
					t.Fatal(err)
				}
			} else {
				if !logDirty(l) {
					t.Fatal("the SyncOff commit left nothing unsynced")
				}
				l.StartCheckpointer(st, c.tick)
				deadline := time.Now().Add(5 * time.Second)
				for logDirty(l) {
					if time.Now().After(deadline) {
						t.Fatal("no tick fsynced the log within 5s")
					}
					time.Sleep(time.Millisecond)
				}
				if got := l.Stats(); got.Checkpoints != 1 || got.WalRecords != 1 {
					t.Fatalf("a tick checkpointed a log that is not due: %+v", got)
				}
			}
			l.Close()
			st2, _ := mustOpen(t, dir, Options{Sync: c.policy})
			if got := storetest.Fingerprint(st2.View()); got != want {
				t.Fatal("recovery diverges")
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "off": SyncOff} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
	// The retired policy names its replacement.
	if _, err := ParseSyncPolicy("interval"); err == nil || !strings.Contains(err.Error(), "-fsync off -checkpoint-every") {
		t.Errorf("ParseSyncPolicy(\"interval\") err = %v, want one naming -fsync off -checkpoint-every", err)
	}
}

// TestStatsBesideSnapshot: Stats reads no lock, so it returns while
// another goroutine holds the log's lock through BeginSnapshot — the
// state a checkpoint's encode is in — and /stats and /metrics do not
// stall behind a checkpoint.
func TestStatsBesideSnapshot(t *testing.T) {
	st, l := mustOpen(t, t.TempDir(), Options{Sync: SyncOff})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	pos, release := l.BeginSnapshot()
	defer release()
	got := make(chan Stats, 1)
	go func() { got <- l.Stats() }()
	select {
	case s := <-got:
		if s.WalBytes != pos.Offset || s.Seq != pos.NextSeq || s.WalRecords != 1 {
			t.Fatalf("stats %+v disagree with the snapshot position %+v", s, pos)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats blocked behind BeginSnapshot")
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

// TestCheckpointIncrementalDue: an incremental request runs a full
// checkpoint — the log truncated, the epoch up by one — when the
// directory has no checkpoint.bin, or when the log is at least
// dueLogBytes and larger than half the checkpoint. Otherwise it counts
// no checkpoint, keeps wal.log byte for byte with its records and the
// replication position, and leaves the SyncOff log with nothing
// unsynced. Either way the directory recovers the store.
func TestCheckpointIncrementalDue(t *testing.T) {
	// One distinct 64 KiB literal a quad: 17 of them pass dueLogBytes,
	// 15 do not.
	cases := []struct {
		name         string
		base, logged int // 64 KiB quads in checkpoint.bin (-1: none) and in the log
		due          bool
	}{
		{"no checkpoint", -1, 1, true},
		{"log under dueLogBytes", 1, 15, false},
		{"log past dueLogBytes and half the checkpoint", 1, 17, true},
		{"log past dueLogBytes, under half the checkpoint", 40, 17, false},
		{"log past dueLogBytes and half a larger checkpoint", 40, 25, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, l := mustOpen(t, dir, Options{Sync: SyncOff})
			big := func(i int) Op {
				return insertOp("m", "http://big", "http://p", fmt.Sprintf("%d", i)+strings.Repeat("x", 64<<10))
			}
			for i := 0; i < c.base; i++ {
				commit(t, l, st, big(i))
			}
			if c.base >= 0 {
				if err := l.Checkpoint(st); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < c.logged; i++ {
				commit(t, l, st, big(1000+i))
			}
			logPath := filepath.Join(dir, logFile)
			logBefore, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			ws, pos := l.Stats(), l.Position()
			if !logDirty(l) {
				t.Fatal("the SyncOff commits left nothing unsynced")
			}
			if err := l.CheckpointIncremental(st); err != nil {
				t.Fatal(err)
			}
			got, gotPos := l.Stats(), l.Position()
			if c.due {
				if got.Checkpoints != ws.Checkpoints+1 || got.WalBytes != 0 || gotPos.Epoch != pos.Epoch+1 {
					t.Fatalf("due log (%d bytes) not checkpointed: %+v, epoch %d -> %d", ws.WalBytes, got, pos.Epoch, gotPos.Epoch)
				}
			} else {
				logAfter, err := os.ReadFile(logPath)
				if err != nil {
					t.Fatal(err)
				}
				if got.Checkpoints != ws.Checkpoints || got.WalRecords != ws.WalRecords || gotPos != pos || !bytes.Equal(logAfter, logBefore) {
					t.Fatalf("log of %d bytes checkpointed or changed: %+v, position %+v -> %+v", ws.WalBytes, got, pos, gotPos)
				}
				if logDirty(l) {
					t.Fatal("the request left unsynced bytes under SyncOff")
				}
			}
			want := storetest.Fingerprint(st.View())
			l.Close()
			st2, _ := mustOpen(t, dir, Options{Sync: SyncOff})
			if storetest.Fingerprint(st2.View()) != want {
				t.Fatal("recovery diverges")
			}
		})
	}
}

// logDirty reports whether the log holds bytes written since its
// last fsync.
func logDirty(l *Log) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty
}

// TestCheckpointIncrementalBrokenWriter: once an append has failed, an
// incremental request returns the log's error whether or not the
// log is due, and counts it in CheckpointErrors.
func TestCheckpointIncrementalBrokenWriter(t *testing.T) {
	for name, base := range map[string]bool{"due": false, "not due": true} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, l := mustOpen(t, dir, Options{Sync: SyncOff})
			commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
			if base {
				if err := l.Checkpoint(st); err != nil {
					t.Fatal(err)
				}
			}
			fi := NewFaultInjector()
			l.SetFaultInjector(fi)
			fi.FailAfterBytes(3)
			if err := l.Commit(Batch{Ops: []Op{insertOp("m", "http://b", "http://p", "2")}}, nil); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("commit err = %v, want ErrInjectedCrash", err)
			}
			before := l.Stats()
			if err := l.CheckpointIncremental(st); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("err = %v, want the log's ErrInjectedCrash", err)
			}
			if got := l.Stats(); got.CheckpointErrors != before.CheckpointErrors+1 || got.Checkpoints != before.Checkpoints {
				t.Fatalf("stats %+v -> %+v", before, got)
			}
		})
	}
}
