package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ntriples"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
	"repro/internal/wal"
)

// fourIndexes are the indexes of the data dir benchmark/run.go prepares
// for mixed-rw-ng: a set that is no scheme's recommended one.
var fourIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}

// schemeQuads is one small twitter graph under scheme.
func schemeQuads(scheme pgrdf.Scheme) []rdf.Quad {
	g := twitter.Generate(twitter.PaperConfig().Scale(0.002))
	return pgrdf.NewConverter(scheme).Convert(g).All()
}

func wantIndexes(t *testing.T, what string, st *store.Store, want []string) {
	t.Helper()
	if got := st.View().Indexes(); !slices.Equal(got, want) {
		t.Errorf("%s: indexes %v, want %v", what, got, want)
	}
}

// TestLoadStoreBuildsSchemeIndexes: an N-Quads file of each scheme
// loads with exactly that scheme's recommended indexes, and nothing
// but the data decides which.
func TestLoadStoreBuildsSchemeIndexes(t *testing.T) {
	for _, scheme := range pgrdf.Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			quads := schemeQuads(scheme)
			path := filepath.Join(t.TempDir(), "data.nq")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ntriples.NewWriter(f).WriteAll(quads); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := loadStore(path)
			if err != nil {
				t.Fatal(err)
			}
			wantIndexes(t, "loaded", st, pgrdf.RecommendedIndexes(scheme))
			if st.Len() != len(quads) {
				t.Errorf("loaded %d quads, want %d", st.Len(), len(quads))
			}
		})
	}
}

// TestEmptyStoreGetsNGIndexes: serve and snapshot with neither -data
// nor -restore start from the set of the scheme DetectScheme reports
// for no data.
func TestEmptyStoreGetsNGIndexes(t *testing.T) {
	st, err := openStore("", "")
	if err != nil {
		t.Fatal(err)
	}
	wantIndexes(t, "empty", st, pgrdf.RecommendedIndexes(pgrdf.NG))
}

// TestRestoreKeepsItsIndexes: a -restore snapshot is served with the
// indexes it was written with, not with its scheme's set.
func TestRestoreKeepsItsIndexes(t *testing.T) {
	src, err := store.NewWithIndexes(fourIndexes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Load("data", schemeQuads(pgrdf.SP)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.View().SnapshotBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := openStore("", path)
	if err != nil {
		t.Fatal(err)
	}
	wantIndexes(t, "restored", st, fourIndexes)
	if st.Len() != src.Len() {
		t.Errorf("restored %d quads, want %d", st.Len(), src.Len())
	}
}

// commit journals and applies the insert of quads into "data".
func commit(t *testing.T, l *wal.Log, st *store.Store, quads ...rdf.Quad) {
	t.Helper()
	var b wal.Batch
	for _, q := range quads {
		b.Ops = append(b.Ops, wal.Op{Kind: wal.OpInsert, Model: "data", Quad: q})
	}
	if err := l.Commit(b, func() error { return wal.ApplyBatch(st, b) }); err != nil {
		t.Fatal(err)
	}
}

// TestDataDirCheckpointKeepsItsIndexes is mixed-rw-ng's start: a data
// dir whose checkpoint was written with four indexes, and a log tail
// after it, recovers with those four.
func TestDataDirCheckpointKeepsItsIndexes(t *testing.T) {
	dir := t.TempDir()
	quads := schemeQuads(pgrdf.NG)
	src, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, Indexes: fourIndexes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Load("data", quads[1:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	commit(t, l, src, quads[0])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st, l, err := openDataDir(dir, wal.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wantIndexes(t, "recovered", st, fourIndexes)
	if st.Len() != len(quads) {
		t.Errorf("recovered %d quads, want %d", st.Len(), len(quads))
	}
}

// TestFreshDataDirReopensWithItsSet: a data dir that has journaled
// commits but no checkpoint yet reopens with the set it first opened
// with, and replays its commits into it.
func TestFreshDataDirReopensWithItsSet(t *testing.T) {
	dir := t.TempDir()
	st, l, err := openDataDir(dir, wal.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	first := st.View().Indexes()
	wantIndexes(t, "fresh", st, pgrdf.RecommendedIndexes(pgrdf.NG))
	quads := schemeQuads(pgrdf.SP)[:10]
	commit(t, l, st, quads...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.bin")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.bin: %v, want none", err)
	}

	st, l, err = openDataDir(dir, wal.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wantIndexes(t, "reopened", st, first)
	if st.Len() != len(quads) {
		t.Errorf("replayed %d quads, want %d", st.Len(), len(quads))
	}
}
