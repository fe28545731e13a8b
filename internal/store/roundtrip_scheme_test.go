package store_test

// Snapshot/Restore round-trip property test (ISSUE 5 satellite): for
// every index configuration and every RF/NG/SP scheme dataset,
// Snapshot(Restore(Snapshot(st))) must equal Snapshot(st) byte for
// byte. Crash recovery (internal/wal) verifies durability by comparing
// snapshot bytes, so this determinism property is load-bearing.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// indexConfigs spans single-index, the Oracle default pair, the
// NG-scheme config with a graph-leading index, and a full fan of
// permutation prefixes.
var indexConfigs = [][]string{
	{"PCSGM"},
	{"PCSGM", "PSCGM"},
	{"PCSGM", "PSCGM", "GSPCM"},
	{"SPCGM", "GSPCM"},
	{"PCSGM", "PSCGM", "SPCGM", "GSPCM", "CPSGM"},
}

// trickyQuads stresses the N-Quads escaping path of the snapshot
// format: quotes, newlines, unicode, language tags, typed literals and
// blank nodes.
func trickyQuads() []rdf.Quad {
	s := rdf.NewIRI("http://pg/v1")
	return []rdf.Quad{
		{S: s, P: rdf.NewIRI("http://pg/k/bio"), O: rdf.NewLiteral("line1\nline2\t\"quoted\" \\slash")},
		{S: s, P: rdf.NewIRI("http://pg/k/name"), O: rdf.NewLangLiteral("Amélie", "fr")},
		{S: s, P: rdf.NewIRI("http://pg/k/age"), O: rdf.NewInt(23)},
		{S: s, P: rdf.NewIRI("http://pg/k/score"), O: rdf.NewDouble(1.5e-8)},
		{S: s, P: rdf.NewIRI("http://pg/k/active"), O: rdf.NewBoolean(true)},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://pg/k/note"), O: rdf.NewLiteral("from a blank"), G: rdf.NewIRI("http://pg/e99")},
	}
}

func snapshotOf(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTripSchemesAndIndexes(t *testing.T) {
	g := twitter.Generate(twitter.PaperConfig().Scale(0.002))
	for _, scheme := range pgrdf.Schemes {
		conv := pgrdf.NewConverter(scheme)
		ds := conv.Convert(g)
		for _, idx := range indexConfigs {
			t.Run(fmt.Sprintf("%s/%v", scheme, idx), func(t *testing.T) {
				st, err := store.NewWithIndexes(idx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pgrdf.LoadPartitioned(st, ds, "pg"); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Load("tricky", trickyQuads()); err != nil {
					t.Fatal(err)
				}
				st.Model("empty") // empty models must survive the trip too

				first := snapshotOf(t, st)
				r, err := store.Restore(bytes.NewReader(first))
				if err != nil {
					t.Fatal(err)
				}
				second := snapshotOf(t, r)
				if !bytes.Equal(first, second) {
					t.Fatalf("snapshot not a fixed point under Restore (%d vs %d bytes)", len(first), len(second))
				}
				if !reflect.DeepEqual(r.View().Indexes(), st.View().Indexes()) {
					t.Fatalf("indexes: %v vs %v", r.View().Indexes(), st.View().Indexes())
				}
				if r.Len() != st.Len() {
					t.Fatalf("restored %d of %d quads", r.Len(), st.Len())
				}
				for _, vm := range []string{"pg", "pg_topo_nodekv", "pg_topo_edgekv"} {
					want, err1 := st.View().ResolveDataset(vm)
					got, err2 := r.View().ResolveDataset(vm)
					if err1 != nil || err2 != nil || len(want) != len(got) {
						t.Fatalf("virtual model %s: %v/%v, %v/%v", vm, want, got, err1, err2)
					}
				}
			})
		}
	}
}
