package wal_test

// The headline durability property: a kill -9-style crash at ANY byte
// of the write-ahead log recovers to a store whose fingerprint
// (storetest.Fingerprint) equals the state after the last durably
// framed commit. The harness runs a scripted SPARQL Update workload
// once, recording the log boundary and a reference fingerprint after
// every commit; each crash point then materializes checkpoint +
// log-prefix in a fresh directory, reopens it, and compares
// fingerprints.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/twitter"
	"repro/internal/wal"
)

// attach wires the engine's commit hook to the log the same way the
// HTTP layer does (httpapi.AttachWAL).
func attach(eng *sparql.Engine, l *wal.Log) {
	eng.CommitHook = func(muts []sparql.Mutation, apply func() error) error {
		ops := make([]wal.Op, len(muts))
		for i, m := range muts {
			kind := wal.OpDelete
			if m.Insert {
				kind = wal.OpInsert
			}
			ops[i] = wal.Op{Kind: kind, Model: m.Model, Quad: m.Quad}
		}
		return l.Commit(wal.Batch{Ops: ops}, apply)
	}
}

type upd struct {
	model string
	req   string
}

type crashRef struct {
	boundary    int64 // log size after this commit
	fingerprint string
}

// readCheckpointFiles captures every published checkpoint file in dir
// (the unpublished .tmp aside) so a crash point can be materialized
// byte-for-byte in a fresh directory.
func readCheckpointFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "checkpoint.") || name == "checkpoint.tmp" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	return files
}

// runWorkload executes the scripted updates against a WAL-backed engine
// (optionally seeding + checkpointing first) and returns the checkpoint
// files (empty if none), the final log bytes, and the per-commit
// references. refs[0] is the pre-workload state at boundary 0.
func runWorkload(t *testing.T, opts wal.Options, seed func(st *store.Store), updates []upd) (ckptFiles map[string][]byte, log []byte, refs []crashRef) {
	t.Helper()
	dir := t.TempDir()
	st, l, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seed != nil {
		seed(st)
		if err := l.Checkpoint(st); err != nil {
			t.Fatal(err)
		}
	}
	eng := sparql.NewEngine(st)
	attach(eng, l)
	refs = append(refs, crashRef{boundary: 0, fingerprint: storetest.Fingerprint(st.View())})
	for i, u := range updates {
		if _, err := eng.UpdateContext(t.Context(), u.model, u.req); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		refs = append(refs, crashRef{boundary: l.Stats().WalBytes, fingerprint: storetest.Fingerprint(st.View())})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptFiles = readCheckpointFiles(t, dir)
	log, err = os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got := refs[len(refs)-1].boundary; got != int64(len(log)) {
		t.Fatalf("final boundary %d != log size %d", got, len(log))
	}
	return ckptFiles, log, refs
}

// crashAt materializes the on-disk state a crash at byte c would leave
// and verifies recovery lands exactly on the last durably framed commit.
func crashAt(t *testing.T, c int64, ckptFiles map[string][]byte, log []byte, refs []crashRef) {
	t.Helper()
	dir := t.TempDir()
	for name, b := range ckptFiles {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log[:c], 0o644); err != nil {
		t.Fatal(err)
	}
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatalf("crash at byte %d: recovery failed: %v", c, err)
	}
	defer l.Close()
	want := refs[0]
	for _, r := range refs {
		if r.boundary <= c {
			want = r
		}
	}
	if got := storetest.Fingerprint(st.View()); got != want.fingerprint {
		t.Fatalf("crash at byte %d: recovered state diverges from the commit at boundary %d", c, want.boundary)
	}
	if ws := l.Stats(); ws.TornBytesDropped != c-want.boundary {
		t.Fatalf("crash at byte %d: dropped %d torn bytes, want %d", c, ws.TornBytesDropped, c-want.boundary)
	}
}

// fig1Updates is a Fig. 1 graph built entirely through journaled SPARQL
// updates: vertex KVs, reified edges with edge KVs in named graphs,
// property renames, cross-model deletes and a tombstone resurrection.
func fig1Updates() []upd {
	const (
		v1      = "<http://pg/v1>"
		v2      = "<http://pg/v2>"
		e3      = "<http://pg/e3>"
		e4      = "<http://pg/e4>"
		follows = "<http://pg/r/follows>"
		knows   = "<http://pg/r/knows>"
		name    = "<http://pg/k/name>"
		age     = "<http://pg/k/age>"
		since   = "<http://pg/k/since>"
		metAt   = "<http://pg/k/firstMetAt>"
		label   = "<http://pg/k/label>"
		xsdInt  = "<http://www.w3.org/2001/XMLSchema#int>"
	)
	return []upd{
		// Vertices with their KVs.
		{"fig1", fmt.Sprintf(`INSERT DATA { %s %s "Amy" . %s %s "23"^^%s . %s %s "Mira" . %s %s "22"^^%s }`,
			v1, name, v1, age, xsdInt, v2, name, v2, age, xsdInt)},
		// Reified edges: topology + edge KVs inside the edge's graph.
		{"fig1", fmt.Sprintf(`INSERT DATA { GRAPH %s { %s %s %s . %s %s "2007"^^%s } }`,
			e3, v1, follows, v2, e3, since, xsdInt)},
		{"fig1", fmt.Sprintf(`INSERT DATA { GRAPH %s { %s %s %s . %s %s "MIT" } }`,
			e4, v1, knows, v2, e4, metAt)},
		// A second model so multi-model deletes have something to hit.
		{"aux", fmt.Sprintf(`INSERT DATA { %s %s "Amy the second" . %s %s "99"^^%s }`,
			v1, name, v1, age, xsdInt)},
		// Exact-quad delete.
		{"fig1", fmt.Sprintf(`DELETE DATA { %s %s "22"^^%s }`, v2, age, xsdInt)},
		// DELETE WHERE against the all-models dataset: journaled once per
		// concrete member model.
		{"", fmt.Sprintf(`DELETE WHERE { ?s %s ?v }`, age)},
		// DELETE/INSERT rename (the paper's §2.1 update pattern).
		{"fig1", fmt.Sprintf(`DELETE { ?s %s ?v } INSERT { ?s %s ?v } WHERE { ?s %s ?v }`,
			name, label, name)},
		// Resurrect a tombstoned quad, plus a duplicate no-op insert.
		{"fig1", fmt.Sprintf(`INSERT DATA { %s %s "22"^^%s . %s %s "Mira" }`,
			v2, age, xsdInt, v2, label)},
	}
}

// TestCrashRecoveryEveryByteFig1 checks the differential at every
// single byte of the log for the Fig. 1 workload (no checkpoint: the
// log carries the whole history).
func TestCrashRecoveryEveryByteFig1(t *testing.T) {
	_, log, refs := runWorkload(t, wal.Options{Sync: wal.SyncAlways}, nil, fig1Updates())
	for c := int64(0); c <= int64(len(log)); c++ {
		crashAt(t, c, nil, log, refs)
	}
}

// TestCrashRecoveryCheckpointPlusTailFig1 takes a mid-workload
// checkpoint and crashes through the tail, so recovery exercises
// checkpoint restore + partial replay together.
func TestCrashRecoveryCheckpointPlusTailFig1(t *testing.T) {
	updates := fig1Updates()
	half := len(updates) / 2

	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eng := sparql.NewEngine(st)
	attach(eng, l)
	for i := 0; i < half; i++ {
		if _, err := eng.UpdateContext(t.Context(), updates[i].model, updates[i].req); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	refs := []crashRef{{boundary: 0, fingerprint: storetest.Fingerprint(st.View())}}
	for i := half; i < len(updates); i++ {
		if _, err := eng.UpdateContext(t.Context(), updates[i].model, updates[i].req); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, crashRef{boundary: l.Stats().WalBytes, fingerprint: storetest.Fingerprint(st.View())})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptFiles := readCheckpointFiles(t, dir)
	if _, ok := ckptFiles["checkpoint.bin"]; !ok || len(ckptFiles) != 1 {
		t.Fatalf("checkpoint files = %v, want exactly checkpoint.bin", ckptFiles)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c <= int64(len(log)); c++ {
		crashAt(t, c, ckptFiles, log, refs)
	}
}

// TestCrashRecoveryIncrementalChain crashes at every byte of a log
// tail that spans a not-due incremental request: after a full
// checkpoint the request fsyncs the log and keeps it whole, so the
// commits before and after it are one tail that recovery replays over
// checkpoint.bin.
func TestCrashRecoveryIncrementalChain(t *testing.T) {
	updates := fig1Updates()

	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eng := sparql.NewEngine(st)
	attach(eng, l)
	var refs []crashRef
	run := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := eng.UpdateContext(t.Context(), updates[i].model, updates[i].req); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, crashRef{boundary: l.Stats().WalBytes, fingerprint: storetest.Fingerprint(st.View())})
		}
	}
	run(0, 2)
	if err := l.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	refs = []crashRef{{boundary: 0, fingerprint: storetest.Fingerprint(st.View())}}
	run(2, 5)
	before, epoch := l.Stats(), l.Position().Epoch
	if err := l.CheckpointIncremental(st); err != nil {
		t.Fatal(err)
	}
	if ws := l.Stats(); ws.Checkpoints != before.Checkpoints || ws.WalBytes != before.WalBytes || l.Position().Epoch != epoch {
		t.Fatalf("a not-due incremental request checkpointed: %+v, epoch %d -> %d", ws, epoch, l.Position().Epoch)
	}
	run(5, len(updates))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ckptFiles := readCheckpointFiles(t, dir)
	if _, ok := ckptFiles["checkpoint.bin"]; !ok || len(ckptFiles) != 1 {
		t.Fatalf("checkpoint files = %v, want exactly checkpoint.bin", ckptFiles)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c <= int64(len(log)); c++ {
		crashAt(t, c, ckptFiles, log, refs)
	}
}

// TestCrashRecoveryTwitterSample seeds a Twitter-sample NG dataset
// (partitioned models + virtual models + the NG index config) through a
// checkpoint, then runs journaled updates over it and crashes around
// every record boundary of the tail.
func TestCrashRecoveryTwitterSample(t *testing.T) {
	if testing.Short() {
		t.Skip("twitter-sample crash matrix is seconds-long; skipped with -short")
	}
	seed := func(st *store.Store) {
		g := twitter.Generate(twitter.TestConfig())
		conv := &pgrdf.Converter{Scheme: pgrdf.NG, Vocab: pgrdf.DefaultVocabulary(), Opts: pgrdf.DefaultOptions()}
		if _, err := pgrdf.LoadPartitioned(st, conv.Convert(g), "pg"); err != nil {
			t.Fatal(err)
		}
	}
	const (
		follows = "<http://pg/r/follows>"
		name    = "<http://pg/k/name>"
	)
	updates := []upd{
		{"pg_topo", fmt.Sprintf(`INSERT DATA { GRAPH <http://pg/e900001> { <http://pg/v1> %s <http://pg/v2> } }`, follows)},
		{"pg_nodekv", fmt.Sprintf(`INSERT DATA { <http://pg/v1> %s "crash test" . <http://pg/v2> %s "dummy" }`, name, name)},
		// Delete through the virtual union model: expanded per member.
		{"pg", fmt.Sprintf(`DELETE WHERE { <http://pg/v1> %s ?v }`, name)},
		{"pg_nodekv", fmt.Sprintf(`DELETE DATA { <http://pg/v2> %s "dummy" }`, name)},
	}
	ckptFiles, log, refs := runWorkload(t, wal.Options{
		Sync:    wal.SyncAlways,
		Indexes: []string{"PCSGM", "PSCGM", "GSPCM"},
	}, seed, updates)
	if len(ckptFiles) == 0 {
		t.Fatal("no checkpoint written for the seeded store")
	}
	// Crash points: around every record boundary, plus each midpoint.
	points := map[int64]struct{}{0: {}, int64(len(log)): {}}
	for i := 1; i < len(refs); i++ {
		b := refs[i].boundary
		prev := refs[i-1].boundary
		for _, c := range []int64{b - 1, b, b + 1, prev + (b-prev)/2} {
			if c >= 0 && c <= int64(len(log)) {
				points[c] = struct{}{}
			}
		}
	}
	for c := range points {
		crashAt(t, c, ckptFiles, log, refs)
	}
}

// TestReadOnlyQueriesBypassWAL pins the "WAL sits entirely on the
// update path" property: queries leave the log untouched.
func TestReadOnlyQueriesBypassWAL(t *testing.T) {
	dir := t.TempDir()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eng := sparql.NewEngine(st)
	attach(eng, l)
	if _, err := eng.UpdateContext(t.Context(), "m", `INSERT DATA { <http://a> <http://p> "1" }`); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	for i := 0; i < 10; i++ {
		if _, err := eng.QueryContext(t.Context(), "m", `SELECT ?s WHERE { ?s ?p ?o }`); err != nil {
			t.Fatal(err)
		}
	}
	after := l.Stats()
	if before.WalBytes != after.WalBytes || before.WalRecords != after.WalRecords || before.Seq != after.Seq {
		t.Fatalf("read-only queries touched the WAL: before %+v after %+v", before, after)
	}
}
