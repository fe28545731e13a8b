package wal

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

// FuzzLoadDeltas: a delta file with a valid header for the real base
// checkpoint, followed by arbitrary bytes as its frames, either fails
// Open with ErrCheckpointCorrupt or recovers the base with every frame
// applied — never a panic, and never a store holding only some of the
// frames. Seeds are the record corpus, the same corpus with each of its
// bytes flipped, and the torn-write corpus files.
func FuzzLoadDeltas(f *testing.F) {
	baseDir := f.TempDir()
	st, l, err := Open(baseDir, Options{Sync: SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	b := Batch{Ops: []Op{insertOp("m", "http://a", "http://p", "1"), insertOp("n", "http://b", "http://p", "2")}}
	if err = l.Commit(b, func() error { return ApplyBatch(st, b) }); err == nil {
		err = l.Checkpoint(st)
	}
	l.Close()
	if err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join(baseDir, checkpointBinFile))
	if err != nil {
		f.Fatal(err)
	}
	header, err := encodeDelta(crc32.ChecksumIEEE(base), 1, nil, 1)
	if err != nil {
		f.Fatal(err)
	}

	log, _ := encodeCorpus(f)
	f.Add(log)
	for pos := range log {
		mut := append([]byte(nil), log...)
		mut[pos] ^= 0xFF
		f.Add(mut)
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "torn", "*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, frames []byte) {
		// The store a recovery applying every decodable frame reaches.
		want, err := store.RestoreBinary(base)
		if err != nil {
			t.Fatal(err)
		}
		good, _, err := readRecords(bytes.NewReader(frames), func(_ uint64, b Batch) error { return ApplyBatch(want, b) })
		if err != nil {
			t.Fatalf("a decoded frame does not apply: %v", err)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointBinFile), base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, deltaName(1)), append(append([]byte(nil), header...), frames...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, l, err := Open(dir, Options{Sync: SyncOff})
		if good != int64(len(frames)) {
			if err == nil {
				l.Close()
				t.Fatalf("Open accepted a delta whose frames decode only to byte %d of %d", good, len(frames))
			}
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("Open failed with %v, want ErrCheckpointCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open refused a delta of whole frames: %v", err)
		}
		defer l.Close()
		if storetest.Fingerprint(got.View()) != storetest.Fingerprint(want.View()) {
			t.Fatal("recovered store differs from the base with every frame applied")
		}
	})
}
