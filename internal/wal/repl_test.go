package wal

// Tests for the leader-side replication surface: identity persistence,
// epoch/sequence durability across checkpoints and restarts, tail
// reads with divergence detection, and the corrupt-checkpoint guard.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestReplIdentityPersists(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	pos := l.Position()
	if pos.ID == "" {
		t.Fatal("fresh log has no replication ID")
	}
	if pos.Epoch != 0 || pos.Offset != 0 || pos.NextSeq != 1 || pos.EpochStartSeq != 1 {
		t.Fatalf("fresh position: %+v", pos)
	}
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	l.Close()

	_, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	pos2 := l2.Position()
	if pos2.ID != pos.ID {
		t.Fatalf("replication ID changed across restart: %q -> %q", pos.ID, pos2.ID)
	}
	if pos2.Epoch != 0 || pos2.NextSeq != 2 || pos2.EpochStartSeq != 1 {
		t.Fatalf("position after reopen: %+v", pos2)
	}
}

func TestCheckpointAdvancesEpochAndSeqSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	commit(t, l, st, insertOp("m", "http://b", "http://p", "2"))
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	pos := l.Position()
	if pos.Epoch != 1 || pos.Offset != 0 || pos.NextSeq != 3 || pos.EpochStartSeq != 3 {
		t.Fatalf("position after checkpoint: %+v", pos)
	}
	l.Close()

	// The log is empty (just truncated); sequence numbers must not
	// restart from 1 — repl.meta carries them across.
	st2, l2 := mustOpen(t, dir, Options{Sync: SyncAlways})
	pos2 := l2.Position()
	if pos2.Epoch != 1 || pos2.NextSeq != 3 || pos2.EpochStartSeq != 3 {
		t.Fatalf("position after restart-from-checkpoint: %+v", pos2)
	}
	commit(t, l2, st2, insertOp("m", "http://c", "http://p", "3"))
	if got := l2.Position().NextSeq; got != 4 {
		t.Fatalf("next seq after post-restart commit = %d, want 4", got)
	}
}

func TestReadLogAtRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	commit(t, l, st,
		insertOp("m", "http://b", "http://p", "2"),
		insertOp("m", "http://c", "http://p", "3"))

	data, pos, err := l.ReadLogAt(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != pos.Offset {
		t.Fatalf("read %d bytes, position offset %d", len(data), pos.Offset)
	}
	var seqs []uint64
	var ops int
	consumed, last, err := DecodeFrames(data, func(seq uint64, b Batch) error {
		seqs = append(seqs, seq)
		ops += len(b.Ops)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if consumed != int64(len(data)) || last != 2 || ops != 3 {
		t.Fatalf("decoded consumed=%d last=%d ops=%d from %d bytes", consumed, last, ops, len(data))
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("frame seqs: %v", seqs)
	}

	// A max cap that lands mid-frame returns a decodable prefix plus a
	// partial tail; DecodeFrames consumes only the whole frames.
	capped, _, err := l.ReadLogAt(0, 0, int(consumed)-3)
	if err != nil {
		t.Fatal(err)
	}
	c2, last2, err := DecodeFrames(capped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if last2 != 1 || c2 >= int64(len(capped)) {
		t.Fatalf("capped decode: consumed=%d last=%d of %d bytes", c2, last2, len(capped))
	}

	// Resuming from the first frame boundary yields exactly the rest.
	rest, _, err := l.ReadLogAt(0, c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, data[c2:]) {
		t.Fatal("resumed read differs from the original tail")
	}
}

func TestReadLogAtDivergence(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))

	if _, _, err := l.ReadLogAt(7, 0, 0); !errors.Is(err, ErrDiverged) {
		t.Fatalf("wrong epoch: err = %v, want ErrDiverged", err)
	}
	end := l.Position().Offset
	if _, _, err := l.ReadLogAt(0, end+1, 0); !errors.Is(err, ErrDiverged) {
		t.Fatalf("offset beyond log end: err = %v, want ErrDiverged", err)
	}
	// Exactly at the end: no data, no error — the long-poll idle case.
	data, pos, err := l.ReadLogAt(0, end, 0)
	if err != nil || len(data) != 0 {
		t.Fatalf("read at end: data=%d err=%v", len(data), err)
	}
	if pos.Offset != end {
		t.Fatalf("position offset %d, want %d", pos.Offset, end)
	}
	// After a checkpoint the old epoch is gone.
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadLogAt(0, 0, 0); !errors.Is(err, ErrDiverged) {
		t.Fatalf("stale epoch after checkpoint: err = %v, want ErrDiverged", err)
	}
}

func TestWakeChanSignalsAppendAndTruncate(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})

	wake := l.WakeChan()
	select {
	case <-wake:
		t.Fatal("wake channel closed before any append")
	default:
	}
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))
	select {
	case <-wake:
	case <-time.After(2 * time.Second):
		t.Fatal("append did not wake tailers")
	}

	wake = l.WakeChan()
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	case <-time.After(2 * time.Second):
		t.Fatal("checkpoint truncation did not wake tailers")
	}
}

func TestBeginSnapshotBlocksCommits(t *testing.T) {
	dir := t.TempDir()
	st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	commit(t, l, st, insertOp("m", "http://a", "http://p", "1"))

	pos, release := l.BeginSnapshot()
	if pos.NextSeq != 2 {
		t.Fatalf("snapshot position: %+v", pos)
	}
	done := make(chan struct{})
	go func() {
		commit(t, l, st, insertOp("m", "http://b", "http://p", "2"))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("commit proceeded while the snapshot lock was held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("commit still blocked after release")
	}
}

// TestOpenCorruptCheckpoint is the loud-failure guard: a checkpoint
// that exists but cannot be parsed must fail Open with a typed error —
// never recover into an empty store over data the operator believes is
// durable.
func TestOpenCorruptCheckpoint(t *testing.T) {
	type corruption struct {
		file    string
		corrupt func(data []byte) []byte
	}
	corruptions := map[string]corruption{
		// Binary format: a flipped payload byte fails its section CRC.
		"binary bit flip": {file: checkpointBinFile, corrupt: func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[len(out)/2] ^= 0x40
			return out
		}},
		// Binary format: a torn tail loses the trailer.
		"binary truncated": {file: checkpointBinFile, corrupt: func(data []byte) []byte {
			return data[:len(data)-7]
		}},
		// Binary format: corrupt incremental delta header.
		"delta header damage": {file: "checkpoint.delta.000001", corrupt: func(data []byte) []byte {
			out := append([]byte(nil), data...)
			out[10] ^= 0x01
			return out
		}},
		// Binary format: torn frame inside a published delta. Deltas are
		// published atomically, so a short frame is damage, not a crash
		// artifact.
		"delta torn frame": {file: "checkpoint.delta.000001", corrupt: func(data []byte) []byte {
			return data[:len(data)-3]
		}},
	}
	for name, c := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, l := mustOpen(t, dir, Options{Sync: SyncAlways})
			commit(t, l, st,
				insertOp("m", "http://a", "http://p", "x"),
				insertOp("m", "http://b", "http://p", "x"))
			if err := l.Checkpoint(st); err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(c.file, "checkpoint.delta.") {
				commit(t, l, st, insertOp("m", "http://c", "http://p", "x"))
				if err := l.CheckpointIncremental(st); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			path := filepath.Join(dir, c.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			st2, l2, err := Open(dir, Options{Sync: SyncAlways})
			if err == nil {
				l2.Close()
				t.Fatalf("Open succeeded over a corrupt checkpoint (%d quads)", st2.Len())
			}
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
			}
		})
	}
}

func TestOpenCorruptReplMeta(t *testing.T) {
	dir := t.TempDir()
	_, l := mustOpen(t, dir, Options{Sync: SyncAlways})
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, replMetaFile), []byte("{half a json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Sync: SyncAlways}); err == nil {
		t.Fatal("Open succeeded over a corrupt repl.meta; regenerating the identity would orphan followers")
	}
}
