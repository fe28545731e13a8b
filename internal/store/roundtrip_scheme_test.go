package store_test

// N-Quads interchange round trip: for every index configuration and
// every RF/NG/SP scheme dataset, exporting each model as N-Quads (what
// /export streams) and loading the dumps into a fresh store must give
// back the same models, quads and virtual models. The binary snapshot is
// the store's only stored form; plain N-Quads is how data leaves and
// enters it, so the tricky literals must survive that trip too.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ntriples"
	"repro/internal/pgrdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// exportNQuads renders model m of v as N-Quads, one quad a line.
func exportNQuads(t *testing.T, v *store.View, m string) []byte {
	t.Helper()
	quads, err := v.Export(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ntriples.NewWriter(&buf).WriteAll(quads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sortedLines splits an N-Quads dump into its lines, sorted: two stores
// intern terms in different orders, so their Export orders may differ.
func sortedLines(dump []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(dump), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func TestExportRoundTripSchemesAndIndexes(t *testing.T) {
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
				src := st.View()

				r, err := store.NewWithIndexes(idx)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range src.Models() {
					quads, err := ntriples.NewReader(bytes.NewReader(exportNQuads(t, src, m))).ReadAll()
					if err != nil {
						t.Fatalf("model %s: the export does not parse: %v", m, err)
					}
					r.Model(m)
					if _, err := r.Load(m, quads); err != nil {
						t.Fatal(err)
					}
				}
				for _, vm := range src.VirtualModels() {
					ids, _ := src.ResolveDataset(vm)
					members := make([]string, len(ids))
					for i, id := range ids {
						members[i] = src.ModelName(id)
					}
					if err := r.CreateVirtualModel(vm, members...); err != nil {
						t.Fatal(err)
					}
				}

				got := r.View()
				if !reflect.DeepEqual(got.Models(), src.Models()) {
					t.Fatalf("models: %v vs %v", got.Models(), src.Models())
				}
				if r.Len() != st.Len() {
					t.Fatalf("reloaded %d of %d quads", r.Len(), st.Len())
				}
				for _, m := range src.Models() {
					if a, b := sortedLines(exportNQuads(t, got, m)), sortedLines(exportNQuads(t, src, m)); !reflect.DeepEqual(a, b) {
						t.Fatalf("model %s: the reloaded export differs (%d vs %d lines)", m, len(a), len(b))
					}
				}
				for _, vm := range []string{"pg", "pg_topo_nodekv", "pg_topo_edgekv"} {
					want, err1 := src.ResolveDataset(vm)
					have, err2 := got.ResolveDataset(vm)
					if err1 != nil || err2 != nil || !reflect.DeepEqual(want, have) {
						t.Fatalf("virtual model %s: %v/%v, %v/%v", vm, want, have, err1, err2)
					}
				}
			})
		}
	}
}
