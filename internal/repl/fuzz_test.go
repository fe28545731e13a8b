package repl

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/wal"
)

// FuzzApplyFrames feeds arbitrary bytes to a follower as the body of a
// /wal tail read. applyFrames must not panic, must fail only with
// errResync, must consume no more than it was given, and must leave
// the store (and its cursor) exactly where a fresh copy lands with the
// frames within the consumed bytes applied. Seeds are a real log's tail
// as the leader serves it, that tail with each byte flipped, and the
// WAL's torn-write corpus.
func FuzzApplyFrames(f *testing.F) {
	st, l, err := wal.Open(f.TempDir(), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	quad := func(s, o string) rdf.Quad {
		return rdf.Quad{S: rdf.NewIRI("http://pg/" + s), P: rdf.NewIRI(rdf.RelNS + "follows"), O: rdf.NewIRI("http://pg/" + o)}
	}
	commit := func(ops ...wal.Op) {
		b := wal.Batch{Ops: ops}
		if err := l.Commit(b, func() error { return wal.ApplyBatch(st, b) }); err != nil {
			f.Fatal(err)
		}
	}
	commit(wal.Op{Kind: wal.OpInsert, Model: "m", Quad: quad("v1", "v2")}, wal.Op{Kind: wal.OpInsert, Model: "m", Quad: quad("v2", "v3")})
	if err := l.Checkpoint(st); err != nil {
		f.Fatal(err)
	}
	var base bytes.Buffer
	if err := st.View().SnapshotBinary(&base); err != nil {
		f.Fatal(err)
	}
	start := l.Position()
	commit(wal.Op{Kind: wal.OpInsert, Model: "m", Quad: quad("v3", "v1")})
	commit(wal.Op{Kind: wal.OpDelete, Model: "m", Quad: quad("v1", "v2")}, wal.Op{Kind: wal.OpInsert, Model: "n", Quad: quad("v1", "v3")})
	commit(wal.Op{Kind: wal.OpInsert, Model: "m", Quad: rdf.Quad{S: rdf.NewIRI("http://pg/v4"), P: rdf.NewIRI(rdf.KeyNS + "name"), O: rdf.NewLiteral("Amy")}})
	tail, _, err := l.ReadLogAt(start.Epoch, start.Offset, 0)
	if err != nil || len(tail) == 0 {
		f.Fatalf("read the log tail: %d bytes, %v", len(tail), err)
	}
	f.Add(tail)
	for i := range tail {
		mut := append([]byte(nil), tail...)
		mut[i] ^= 0xFF
		f.Add(mut)
	}
	torn, err := filepath.Glob(filepath.Join("..", "wal", "testdata", "torn", "*.bin"))
	if err != nil || len(torn) == 0 {
		f.Fatalf("torn-write corpus: %d files, %v", len(torn), err)
	}
	for _, path := range torn {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fl, want := &Follower{}, restore(t, base.Bytes())
		fl.st.Store(restore(t, base.Bytes()))
		fl.pos.nextSeq = start.NextSeq
		consumed, err := fl.applyFrames(data)
		if err != nil && !errors.Is(err, errResync) {
			t.Fatalf("applyFrames failed with %v, want nil or errResync", err)
		}
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		next := start.NextSeq
		got, _, err := wal.DecodeFrames(data[:consumed], func(seq uint64, b wal.Batch) error {
			if seq != next {
				return fmt.Errorf("record seq %d, want %d", seq, next)
			}
			next++
			return wal.ApplyBatch(want, b)
		})
		if err != nil || got != consumed {
			t.Fatalf("the %d consumed bytes replay as %d bytes of in-order frames: %v", consumed, got, err)
		}
		if fl.pos.offset != consumed || fl.pos.nextSeq != next {
			t.Fatalf("cursor at offset %d seq %d, want %d and %d", fl.pos.offset, fl.pos.nextSeq, consumed, next)
		}
		if storetest.Fingerprint(fl.st.Load().View()) != storetest.Fingerprint(want.View()) {
			t.Fatal("follower store differs from a fresh copy with the consumed frames applied")
		}
	})
}

func restore(t *testing.T, snap []byte) *store.Store {
	t.Helper()
	st, err := store.RestoreBinary(snap)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
