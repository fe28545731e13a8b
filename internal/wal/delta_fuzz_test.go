package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadDeltas: no delta file is ever loaded. Whatever bytes a
// checkpoint.delta.000001 holds beside a real checkpoint and log, Open
// refuses the directory with ErrDeltaCheckpoint naming the file, returns
// no store and leaves the directory as it was — so the refusal never
// depends on parsing the file. Seeds are the record corpus, the same
// corpus with each of its bytes flipped, and the torn-write corpus
// files.
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
	if err == nil {
		err = l.Commit(b, nil)
	}
	l.Close()
	if err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, name := range []string{checkpointBinFile, logFile, replMetaFile} {
		if files[name], err = os.ReadFile(filepath.Join(baseDir, name)); err != nil {
			f.Fatal(err)
		}
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

	f.Fuzz(func(t *testing.T, delta []byte) {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		requireDeltaRefused(t, dir, delta)
	})
}
