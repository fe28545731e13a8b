package pgrdf_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestSchemesEquivalent is the paper's claim as a property over seeded
// generated property graphs, which hold parallel edges, self-loops,
// isolated vertices, KV-less edges and multi-valued KVs. Under every
// non-lossy Options combination and every scheme:
//
//   - FromRDF(Convert(g)) is g (invariant 1);
//   - the CSR projected from the encoding is the same in every scheme;
//   - the query builder's edge, edge-KV and node-KV queries return equal
//     multisets in every scheme (invariant 2);
//
// and under the default options the predicted Table 2 cardinalities are
// the measured ones (invariant 3).
func TestSchemesEquivalent(t *testing.T) {
	covered := map[string]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		g := generate(seed)
		shapes(g, covered)
		for _, opts := range []pgrdf.Options{{ExplicitSPO: true}, {ExplicitSPO: false}} {
			var refCSR, refRows string
			for _, s := range pgrdf.Schemes {
				name := fmt.Sprintf("seed %d/spo=%v/%s", seed, opts.ExplicitSPO, s)
				conv := &pgrdf.Converter{Scheme: s, Vocab: pgrdf.DefaultVocabulary(), Opts: opts}
				ds := conv.Convert(g)

				back, err := pgrdf.FromRDF(ds, conv.Vocab)
				if err != nil {
					t.Fatalf("%s: FromRDF: %v", name, err)
				}
				if got, want := dumpGraph(back), dumpGraph(g); got != want {
					t.Fatalf("%s: FromRDF(Convert(g)) differs from g:\n%s\nwant:\n%s", name, got, want)
				}

				st, err := pgrdf.NewStore(s)
				if err != nil {
					t.Fatal(err)
				}
				names, err := pgrdf.LoadPartitioned(st, ds, "pg")
				if err != nil {
					t.Fatal(err)
				}
				csr := dumpCSRs(t, st, names.All, s)
				rows := queryRows(t, st, names.All, s, opts.ExplicitSPO)
				if refCSR == "" {
					refCSR, refRows = csr, rows
				} else if csr != refCSR {
					t.Fatalf("%s: projected CSR differs from %s's:\n%s\nwant:\n%s", name, pgrdf.Schemes[0], csr, refCSR)
				} else if rows != refRows {
					t.Fatalf("%s: query answers differ from %s's:\n%s\nwant:\n%s", name, pgrdf.Schemes[0], rows, refRows)
				}

				if opts == pgrdf.DefaultOptions() {
					if got, want := pgrdf.MeasureCardinalities(ds), pgrdf.PredictCardinalities(g.ComputeStats(), s); got != want {
						t.Fatalf("%s: measured %+v, predicted %+v", name, got, want)
					}
				}
			}
			if strings.Contains("\n"+refRows, "\n0 rows") {
				t.Fatalf("seed %d: a query found nothing, so it compares nothing:\n%s", seed, refRows)
			}
		}
	}
	for _, shape := range []string{"parallel", "self-loop", "isolated", "KV-less edge", "multi-valued"} {
		if !covered[shape] {
			t.Errorf("no generated graph has a %s", shape)
		}
	}
}

// shapes notes which of the shapes the generator promises g has.
func shapes(g *pg.Graph, seen map[string]bool) {
	pairs := map[string]bool{}
	multi := func(keys []string, values func(string) []pg.Value) {
		for _, k := range keys {
			seen["multi-valued"] = seen["multi-valued"] || len(values(k)) > 1
		}
	}
	g.Edges(func(e *pg.Edge) bool {
		pair := fmt.Sprint(e.Src, e.Label, e.Dst)
		seen["parallel"] = seen["parallel"] || pairs[pair]
		pairs[pair] = true
		seen["self-loop"] = seen["self-loop"] || e.Src == e.Dst
		seen["KV-less edge"] = seen["KV-less edge"] || e.NumProperties() == 0
		multi(e.Keys(), e.Values)
		return true
	})
	g.Vertices(func(v *pg.Vertex) bool {
		seen["isolated"] = seen["isolated"] || v.NumProperties() == 0 && len(g.OutEdges(v.ID))+len(g.InEdges(v.ID)) == 0
		multi(v.Keys(), v.Values)
		return true
	})
}

// generate builds a seeded property graph with every shape the encodings
// must carry: parallel edges (same endpoints and label), self-loops,
// isolated vertices with and without KVs, KV-less edges, multi-valued
// KVs, and values of every kind.
func generate(seed int64) *pg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	values := func() []pg.Value {
		return []pg.Value{
			pg.I(int64(rng.Intn(5))), pg.I(int64(rng.Intn(3)) << 40), pg.F(float64(rng.Intn(8)) / 4),
			pg.S(fmt.Sprintf("s%d", rng.Intn(4))), pg.B(rng.Intn(2) == 0),
		}
	}
	props := func(add func(string, pg.Value)) {
		for n := rng.Intn(4); n > 0; n-- {
			vals := values()
			add(fmt.Sprintf("k%d", rng.Intn(3)), vals[rng.Intn(len(vals))]) // a repeated key is multi-valued
		}
	}
	const nv = 12
	var ids []pg.ID
	for i := 0; i < nv; i++ {
		v := g.AddVertex()
		props(v.AddProperty)
		ids = append(ids, v.ID)
	}
	labels := []string{"follows", "knows"}
	pick := func() pg.ID { return ids[rng.Intn(nv-3)] } // the last three stay isolated
	for i := 0; i < 30; i++ {
		src, dst := pick(), pick()
		switch rng.Intn(6) {
		case 0:
			dst = src // a self-loop
		case 1:
			if e := g.Edge(pg.ID(nv + 1 + rng.Intn(i+1))); e != nil {
				src, dst = e.Src, e.Dst // parallel to an earlier edge
			}
		}
		e, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
		if err != nil {
			panic(err)
		}
		props(e.AddProperty)
		if rng.Intn(2) == 0 {
			e.AddProperty("w", pg.F(float64(1+rng.Intn(4))))
		}
	}
	return g
}

// dumpGraph renders a property graph canonically: vertices and edges in
// ID order, every key with all of its values.
func dumpGraph(g *pg.Graph) string {
	kvs := func(keys []string, values func(string) []pg.Value) string {
		var parts []string
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%v", k, values(k)))
		}
		return strings.Join(parts, " ")
	}
	var lines []string
	g.Vertices(func(v *pg.Vertex) bool {
		lines = append(lines, fmt.Sprintf("v%d %s", v.ID, kvs(v.Keys(), v.Values)))
		return true
	})
	g.Edges(func(e *pg.Edge) bool {
		lines = append(lines, fmt.Sprintf("e%d %d-%s->%d %s", e.ID, e.Src, e.Label, e.Dst, kvs(e.Keys(), e.Values)))
		return true
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return strings.Join(lines, "\n")
}

// dumpCSRs renders the CSRs projected from the store: all edges
// weighted by "w", and the follows edges alone.
func dumpCSRs(t *testing.T, st *store.Store, model string, s pgrdf.Scheme) string {
	t.Helper()
	var out []string
	for _, opts := range []graph.ProjectOptions{
		{Model: model, Scheme: s, WeightKey: "w", Reverse: true},
		{Model: model, Scheme: s, Label: "follows"},
	} {
		cs, err := graph.Project(context.Background(), st, opts, graph.Budget{})
		if err != nil {
			t.Fatalf("%s: Project(%+v): %v", s, opts, err)
		}
		for v := uint32(0); v < uint32(cs.NumVertices()); v++ {
			out = append(out, fmt.Sprintf("%s -> %v %v", cs.Term(v), cs.Neighbors(v), cs.NeighborWeights(v)))
		}
	}
	return strings.Join(out, "\n")
}

// queryRows runs the query builder's edge, edge-KV and node-KV queries
// and renders their solution multisets. The edge query's solutions are
// compared as a set: its plain -s-p-o pattern matches one triple per
// vertex pair and label in RF and SP, however many edges assert it, and
// one quad per edge in NG. Without ExplicitSPO, RF and SP assert no plain
// triple at all (the paper's storage optimization that needs rewritten
// queries), so the edge query is left out.
func queryRows(t *testing.T, st *store.Store, model string, s pgrdf.Scheme, spo bool) string {
	t.Helper()
	qb := pgrdf.NewQueryBuilder(s)
	queries := []string{
		qb.Select([]string{"x", "y", "e", "k", "v"}, qb.EdgeKVPattern("x", "y", "e", "follows", "k", "v")),
		qb.Select([]string{"x", "y", "e", "v"}, qb.EdgeBoundKVPattern("x", "y", "e", "knows", "k0", "v")),
		qb.Select([]string{"n", "v"}, qb.NodeKVPattern("n", "k1", "v")),
	}
	if spo {
		queries = append(queries, strings.Replace(qb.Select([]string{"x", "y"}, qb.EdgePattern("x", "y", "follows")), "SELECT", "SELECT DISTINCT", 1))
	}
	var out []string
	for _, q := range queries {
		res, err := sparql.NewEngine(st).Query(model, q)
		if err != nil {
			t.Fatalf("%s: %v\n%s", s, err, q)
		}
		var rows []string
		for _, row := range res.Rows {
			rows = append(rows, fmt.Sprint(row))
		}
		sort.Strings(rows)
		out = append(out, fmt.Sprintf("%d rows: %s", len(rows), strings.Join(rows, "; ")))
	}
	return strings.Join(out, "\n")
}
