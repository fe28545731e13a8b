package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// fig1Store loads the Figure 1 property graph in a hand-rolled
// named-graph (NG) representation:
//
//	v1 --follows{since=2007}--> v2, v1 --knows{firstMetAt=MIT}--> v2
//	v1: name=Amy age=23, v2: name=Mira age=22
func fig1Store(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	if err := st.CreateIndex("GSPCM"); err != nil {
		t.Fatal(err)
	}
	v1 := rdf.NewIRI("http://pg/v1")
	v2 := rdf.NewIRI("http://pg/v2")
	e3 := rdf.NewIRI("http://pg/e3")
	e4 := rdf.NewIRI("http://pg/e4")
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	knows := rdf.NewIRI(rdf.RelNS + "knows")
	name := rdf.NewIRI(rdf.KeyNS + "name")
	age := rdf.NewIRI(rdf.KeyNS + "age")
	since := rdf.NewIRI(rdf.KeyNS + "since")
	firstMetAt := rdf.NewIRI(rdf.KeyNS + "firstMetAt")

	quads := []rdf.Quad{
		rdf.NewQuad(v1, follows, v2, e3),
		rdf.NewQuad(e3, since, rdf.NewInt(2007), e3),
		rdf.NewQuad(v1, knows, v2, e4),
		rdf.NewQuad(e4, firstMetAt, rdf.NewLiteral("MIT"), e4),
		{S: v1, P: name, O: rdf.NewLiteral("Amy")},
		{S: v1, P: age, O: rdf.NewInt(23)},
		{S: v2, P: name, O: rdf.NewLiteral("Mira")},
		{S: v2, P: age, O: rdf.NewInt(22)},
	}
	if _, err := st.Load("fig1", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

func query(t *testing.T, st *store.Store, q string) *Results {
	t.Helper()
	res, err := NewEngine(st).Query("", testPrologue+q)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q)
	}
	return res
}

func rowStrings(res *Results) []string {
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			parts[i] = t.String()
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

func TestBGPBasic(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x ?y WHERE { ?x rel:follows ?y }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if res.Rows[0][0].Value != "http://pg/v1" || res.Rows[0][1].Value != "http://pg/v2" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestPaperIntroQuery(t *testing.T) {
	// "who follows whom since when?" — the NG formulation from §2.1.
	st := fig1Store(t)
	res := query(t, st, `SELECT ?xname ?yname ?yr WHERE {
		GRAPH ?g {?x rel:follows ?y . ?g key:since ?yr }
		?x key:name ?xname .
		?y key:name ?yname }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	row := res.Rows[0]
	if row[0].Value != "Amy" || row[1].Value != "Mira" || row[2].Value != "2007" {
		t.Errorf("row = %v", row)
	}
}

func TestJoinOnObject(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?yname WHERE { ?x rel:follows ?y . ?y key:name ?yname }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "Mira" {
		t.Fatalf("res = %s", res)
	}
}

func TestFilterIsLiteralIsIRI(t *testing.T) {
	st := fig1Store(t)
	// Q3 of Table 3: all KVs of the vertex named Amy.
	res := query(t, st, `SELECT ?k ?V WHERE { ?x key:name "Amy" . ?x ?k ?V FILTER (isLiteral(?V)) }`)
	got := rowStrings(res)
	want := []string{
		`<http://pg/k/age> "23"^^<http://www.w3.org/2001/XMLSchema#int>`,
		`<http://pg/k/name> "Amy"`,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
	// Q4: all edges (isIRI objects).
	res = query(t, st, `SELECT ?x ?y WHERE { ?x ?p ?y FILTER (isIRI(?y)) }`)
	if res.Len() != 2 {
		t.Errorf("edge rows = %d\n%s", res.Len(), res)
	}
}

func TestFilterComparisons(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x WHERE { ?x key:age ?a FILTER (?a > 22) }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v1" {
		t.Fatalf("res = %s", res)
	}
	res = query(t, st, `SELECT ?x WHERE { ?x key:age ?a FILTER (?a >= 22 && ?a <= 23) }`)
	if res.Len() != 2 {
		t.Fatalf("range rows = %d", res.Len())
	}
	res = query(t, st, `SELECT ?x WHERE { ?x key:age ?a FILTER (?a + 1 = 23) }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v2" {
		t.Fatalf("arith res = %s", res)
	}
	res = query(t, st, `SELECT ?x WHERE { ?x key:name ?n FILTER (?n != "Amy") }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v2" {
		t.Fatalf("neq res = %s", res)
	}
}

func TestFilterStringFunctions(t *testing.T) {
	st := fig1Store(t)
	cases := []struct {
		filter string
		rows   int
	}{
		{`STRSTARTS(?n, "A")`, 1},
		{`STRENDS(?n, "ra")`, 1},
		{`CONTAINS(?n, "ir")`, 1},
		{`STRLEN(?n) = 3`, 1},
		{`UCASE(?n) = "AMY"`, 1},
		{`LCASE(?n) = "mira"`, 1},
		{`REGEX(?n, "^A")`, 1},
		{`REGEX(?n, "^a", "i")`, 1},
		{`CONCAT("#", ?n) = "#Amy"`, 1},
		{`SUBSTR(?n, 1, 2) = "Mi"`, 1},
		{`STRBEFORE(?n, "m") = "A"`, 1},
		{`STRAFTER(?n, "A") = "my"`, 1},
	}
	for _, c := range cases {
		res := query(t, st, `SELECT ?x WHERE { ?x key:name ?n FILTER (`+c.filter+`) }`)
		if res.Len() != c.rows {
			t.Errorf("filter %s: rows = %d want %d", c.filter, res.Len(), c.rows)
		}
	}
}

func TestGraphVariableBinding(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?g WHERE { GRAPH ?g { ?x rel:follows ?y } }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/e3" {
		t.Fatalf("res = %s", res)
	}
	// GRAPH with a constant IRI.
	res = query(t, st, `SELECT ?x WHERE { GRAPH <http://pg/e4> { ?x rel:knows ?y } }`)
	if res.Len() != 1 {
		t.Fatalf("const graph rows = %d", res.Len())
	}
	// GRAPH variables never match default-graph triples.
	res = query(t, st, `SELECT ?g WHERE { GRAPH ?g { ?x key:name "Amy" } }`)
	if res.Len() != 0 {
		t.Fatalf("default-graph triple matched GRAPH ?g: %s", res)
	}
}

func TestUnion(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?y WHERE { { ?x rel:follows ?y } UNION { ?x rel:knows ?y } }`)
	if res.Len() != 2 {
		t.Fatalf("union rows = %d", res.Len())
	}
}

func TestPathAlternative(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?y WHERE { ?x (rel:knows|rel:follows) ?y }`)
	if res.Len() != 2 {
		t.Fatalf("alt rows = %d\n%s", res.Len(), res)
	}
}

func TestOptional(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x ?since WHERE {
		?x key:name ?n OPTIONAL { GRAPH ?g { ?x rel:follows ?y . ?g key:since ?since } } }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	bound, unbound := 0, 0
	for _, row := range res.Rows {
		if row[1].IsZero() {
			unbound++
		} else {
			bound++
		}
	}
	if bound != 1 || unbound != 1 {
		t.Errorf("bound=%d unbound=%d", bound, unbound)
	}
}

func TestMinus(t *testing.T) {
	st := fig1Store(t)
	// Vertices that have a name but do not follow anyone.
	res := query(t, st, `SELECT ?x WHERE { ?x key:name ?n MINUS { ?x rel:follows ?y } }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v2" {
		t.Fatalf("res = %s", res)
	}
}

func TestBindAndValues(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?tag WHERE { ?x key:name ?n BIND (CONCAT("#", ?n) AS ?tag) }`)
	got := rowStrings(res)
	if len(got) != 2 || got[0] != `"#Amy"` || got[1] != `"#Mira"` {
		t.Fatalf("bind rows = %v", got)
	}
	res = query(t, st, `SELECT ?n WHERE { VALUES ?x { <http://pg/v2> } ?x key:name ?n }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "Mira" {
		t.Fatalf("values res = %s", res)
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x (COUNT(*) AS ?cnt) WHERE { ?x ?k ?v FILTER (isLiteral(?v)) } GROUP BY ?x`)
	if res.Len() != 4 { // v1, v2, e3, e4 each have literal-valued triples
		t.Fatalf("groups = %d\n%s", res.Len(), res)
	}
	for _, row := range res.Rows {
		if row[1].Value != "2" && row[1].Value != "1" {
			t.Errorf("unexpected count %v", row[1])
		}
	}
	// Implicit single group.
	res = query(t, st, `SELECT (COUNT(*) AS ?cnt) WHERE { ?x rel:follows ?y }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "1" {
		t.Fatalf("count res = %s", res)
	}
	// COUNT over an empty pattern still yields a row with 0.
	res = query(t, st, `SELECT (COUNT(*) AS ?cnt) WHERE { ?x rel:missing ?y }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "0" {
		t.Fatalf("empty count res = %s", res)
	}
	// MIN / MAX / SUM / AVG.
	res = query(t, st, `SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SUM(?a) AS ?s) (AVG(?a) AS ?m)
		WHERE { ?x key:age ?a }`)
	row := res.Rows[0]
	if row[0].Value != "22" || row[1].Value != "23" || row[2].Value != "45" || row[3].Value != "22.5" {
		t.Fatalf("min/max/sum/avg = %v", row)
	}
}

func TestCountDistinct(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT (COUNT(DISTINCT ?x) AS ?cnt) WHERE { ?x ?k ?v FILTER (isLiteral(?v)) }`)
	if res.Rows[0][0].Value != "4" {
		t.Fatalf("distinct count = %v", res.Rows[0][0])
	}
}

func TestSubSelectAggregation(t *testing.T) {
	st := store.New()
	var quads []rdf.Quad
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	// Star: v1..v4 all follow v0; v0 follows v1.
	v := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	for i := 1; i <= 4; i++ {
		quads = append(quads, rdf.TripleQuad(rdf.NewTriple(v(i), follows, v(0))))
	}
	quads = append(quads, rdf.TripleQuad(rdf.NewTriple(v(0), follows, v(1))))
	st.Load("m", quads)

	// In-degree distribution (EQ9 shape): v0 has in-degree 4, v1 has 1.
	res := query(t, st, `SELECT ?inDeg (COUNT(*) as ?cnt)
		WHERE { SELECT ?n2 (COUNT(*) as ?inDeg) WHERE { ?n1 r:follows ?n2 } GROUP BY ?n2 }
		GROUP BY ?inDeg ORDER BY DESC(?inDeg)`)
	if res.Len() != 2 {
		t.Fatalf("distribution rows = %d\n%s", res.Len(), res)
	}
	if res.Rows[0][0].Value != "4" || res.Rows[0][1].Value != "1" {
		t.Errorf("first row = %v", res.Rows[0])
	}
	if res.Rows[1][0].Value != "1" || res.Rows[1][1].Value != "1" {
		t.Errorf("second row = %v", res.Rows[1])
	}
}

func TestOrderLimitOffsetDistinct(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?a WHERE { ?x key:age ?a } ORDER BY ?a`)
	if res.Rows[0][0].Value != "22" || res.Rows[1][0].Value != "23" {
		t.Fatalf("order asc: %s", res)
	}
	res = query(t, st, `SELECT ?a WHERE { ?x key:age ?a } ORDER BY DESC(?a)`)
	if res.Rows[0][0].Value != "23" {
		t.Fatalf("order desc: %s", res)
	}
	res = query(t, st, `SELECT ?a WHERE { ?x key:age ?a } ORDER BY ?a LIMIT 1 OFFSET 1`)
	if res.Len() != 1 || res.Rows[0][0].Value != "23" {
		t.Fatalf("limit/offset: %s", res)
	}
	res = query(t, st, `SELECT DISTINCT ?p WHERE { ?x ?p ?y FILTER (isIRI(?y)) }`)
	if res.Len() != 2 {
		t.Fatalf("distinct rows = %d", res.Len())
	}
}

func TestPropertyPathSequence(t *testing.T) {
	st := store.New()
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	v := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	// Chain v0 -> v1 -> v2 -> v3 plus a branch v1 -> v3.
	st.Load("m", []rdf.Quad{
		rdf.TripleQuad(rdf.NewTriple(v(0), follows, v(1))),
		rdf.TripleQuad(rdf.NewTriple(v(1), follows, v(2))),
		rdf.TripleQuad(rdf.NewTriple(v(2), follows, v(3))),
		rdf.TripleQuad(rdf.NewTriple(v(1), follows, v(3))),
	})
	// Two-hop paths from v0: v0->v1->v2 and v0->v1->v3.
	res := query(t, st, `SELECT (COUNT(?y) AS ?cnt) WHERE { <http://pg/v0> r:follows/r:follows ?y }`)
	if res.Rows[0][0].Value != "2" {
		t.Fatalf("2-hop count = %v", res.Rows[0][0])
	}
	// Three-hop: v0->v1->v2->v3 only.
	res = query(t, st, `SELECT (COUNT(?y) AS ?cnt) WHERE { <http://pg/v0> r:follows/r:follows/r:follows ?y }`)
	if res.Rows[0][0].Value != "1" {
		t.Fatalf("3-hop count = %v", res.Rows[0][0])
	}
}

func TestPropertyPathClosures(t *testing.T) {
	st := store.New()
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	v := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	// Cycle v0 -> v1 -> v2 -> v0.
	st.Load("m", []rdf.Quad{
		rdf.TripleQuad(rdf.NewTriple(v(0), follows, v(1))),
		rdf.TripleQuad(rdf.NewTriple(v(1), follows, v(2))),
		rdf.TripleQuad(rdf.NewTriple(v(2), follows, v(0))),
	})
	res := query(t, st, `SELECT ?y WHERE { <http://pg/v0> r:follows+ ?y }`)
	if res.Len() != 3 { // distinct nodes v1, v2, v0
		t.Fatalf("plus rows = %d\n%s", res.Len(), res)
	}
	res = query(t, st, `SELECT ?y WHERE { <http://pg/v0> r:follows* ?y }`)
	if res.Len() != 3 { // v0 (zero hops), v1, v2 — v0 reached twice stays distinct
		t.Fatalf("star rows = %d\n%s", res.Len(), res)
	}
	res = query(t, st, `SELECT ?y WHERE { <http://pg/v0> r:follows? ?y }`)
	if res.Len() != 2 { // v0, v1
		t.Fatalf("opt rows = %d\n%s", res.Len(), res)
	}
	// Reverse anchored: who reaches v0 in one or more hops?
	res = query(t, st, `SELECT ?x WHERE { ?x r:follows+ <http://pg/v0> }`)
	if res.Len() != 3 {
		t.Fatalf("reverse plus rows = %d", res.Len())
	}
	// Inverse path.
	res = query(t, st, `SELECT ?x WHERE { <http://pg/v1> ^r:follows ?x }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v0" {
		t.Fatalf("inverse res = %s", res)
	}
	// Unanchored closure is rejected.
	if _, err := NewEngine(st).Query("", testPrologue+`SELECT ?x WHERE { ?x r:follows+ ?y }`); err == nil {
		t.Error("unanchored closure should fail")
	}
}

func TestDatasetRestriction(t *testing.T) {
	st := store.New()
	st.Load("m1", []rdf.Quad{{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://b")}})
	st.Load("m2", []rdf.Quad{{S: rdf.NewIRI("http://c"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://d")}})
	st.CreateVirtualModel("both", "m1", "m2")
	e := NewEngine(st)
	for model, want := range map[string]int{"m1": 1, "m2": 1, "both": 2, "": 2} {
		res, err := e.Query(model, `SELECT ?x WHERE { ?x <http://p> ?y }`)
		if err != nil {
			t.Fatalf("model %q: %v", model, err)
		}
		if res.Len() != want {
			t.Errorf("model %q: rows = %d want %d", model, res.Len(), want)
		}
	}
	if _, err := e.Query("missing", `SELECT ?x WHERE { ?x <http://p> ?y }`); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestUpdateInsertDelete(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	res, err := e.Update("m", testPrologue+`INSERT DATA {
		<http://pg/v1> rel:follows <http://pg/v2> .
		GRAPH <http://pg/e1> { <http://pg/v1> rel:knows <http://pg/v2> } }`)
	if err != nil || res.Inserted != 2 {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	res, err = e.Update("m", testPrologue+`DELETE DATA { <http://pg/v1> rel:follows <http://pg/v2> }`)
	if err != nil || res.Deleted != 1 {
		t.Fatalf("delete: %+v, %v", res, err)
	}
	if n, _ := e.Count("m", testPrologue+`SELECT ?x WHERE { ?x ?p ?y }`); n != 1 {
		t.Fatalf("remaining = %d", n)
	}
	// DELETE WHERE with a GRAPH template.
	res, err = e.Update("m", testPrologue+`DELETE WHERE { GRAPH ?g { ?x rel:knows ?y } }`)
	if err != nil || res.Deleted != 1 {
		t.Fatalf("delete where: %+v, %v", res, err)
	}
	if st.Len() != 0 {
		t.Fatalf("store not empty: %d", st.Len())
	}
}

func TestExplainReportsIndexes(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	plan, err := e.Explain("", testPrologue+`SELECT ?x WHERE { ?x key:name "Amy" . ?x ?k ?V FILTER (isLiteral(?V)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "PCSGM") {
		t.Errorf("plan should use PCSGM for the P+C bound pattern:\n%s", plan)
	}
	if !strings.Contains(plan, "index range scan") {
		t.Errorf("plan lacks range scan:\n%s", plan)
	}
	// Q2-NG shape: after the follows pattern binds ?g, the ?g ?k ?v
	// pattern has S and G bound — exactly the paper's GSPCM access.
	plan, err = e.Explain("", testPrologue+`SELECT ?g WHERE { GRAPH ?g { ?x rel:follows ?y . ?g ?k ?v } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "GSPCM") {
		t.Errorf("plan should use GSPCM for the G+S bound pattern:\n%s", plan)
	}
}

func TestQueryAgainstEmptyStore(t *testing.T) {
	st := store.New()
	res := query(t, st, `SELECT ?x WHERE { ?x ?p ?y }`)
	if res.Len() != 0 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestUnknownConstantShortCircuits(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x WHERE { ?x <http://never/seen> ?y }`)
	if res.Len() != 0 {
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	st := store.New()
	p := rdf.NewIRI("http://p")
	a, b := rdf.NewIRI("http://a"), rdf.NewIRI("http://b")
	st.Load("m", []rdf.Quad{
		rdf.TripleQuad(rdf.NewTriple(a, p, a)), // self loop
		rdf.TripleQuad(rdf.NewTriple(a, p, b)),
	})
	res := query(t, st, `SELECT ?x WHERE { ?x <http://p> ?x }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://a" {
		t.Fatalf("self-loop res = %s", res)
	}
}

// TestBGPMatchesNaive is invariant 6: random BGPs over random data give
// the same solution multisets as the reference evaluator.
func TestBGPMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		st := store.New()
		var quads []rdf.Quad
		nq := 30 + rng.Intn(100)
		for i := 0; i < nq; i++ {
			quads = append(quads, rdf.Quad{
				S: rdf.NewIRI(fmt.Sprintf("http://s/%d", rng.Intn(10))),
				P: rdf.NewIRI(fmt.Sprintf("http://p/%d", rng.Intn(4))),
				O: rdf.NewIRI(fmt.Sprintf("http://o/%d", rng.Intn(10))),
			})
		}
		st.Load("m", quads)

		// Random 2-4 pattern BGP over vars ?a..?d and constants.
		nPat := 2 + rng.Intn(3)
		vars := []string{"a", "b", "c", "d"}
		pos := func() string {
			if rng.Intn(2) == 0 {
				return "?" + vars[rng.Intn(len(vars))]
			}
			return fmt.Sprintf("<http://s/%d>", rng.Intn(10))
		}
		var pats []string
		for i := 0; i < nPat; i++ {
			s := pos()
			p := fmt.Sprintf("<http://p/%d>", rng.Intn(4))
			pats = append(pats, s+" "+p+" "+pos()+" .")
		}
		q := "SELECT ?a ?b ?c ?d WHERE { " + strings.Join(pats, " ") + " }"
		checkAgainstReference(t, NewEngine(st), "", quads, fmt.Sprintf("trial %d", trial), q)
	}
}
