package sparql

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// bigChainStore builds a random follows graph whose multi-hop joins
// run to tens of thousands of intermediate rows.
func bigChainStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	rng := rand.New(rand.NewSource(31))
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	n := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/n%d", i)) }
	var quads []rdf.Quad
	const nodes = 400
	for i := 0; i < nodes*16; i++ {
		quads = append(quads, rdf.Quad{S: n(rng.Intn(nodes)), P: follows, O: n(rng.Intn(nodes))})
	}
	if _, err := st.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

// defaultAndNestedLoops runs q on the default engine and on one with
// index nested loops only, and returns both answers.
func defaultAndNestedLoops(t *testing.T, st *store.Store, q string) (def, nlj *Results) {
	t.Helper()
	only := NewEngine(st)
	only.NestedLoopsOnly = true
	def, err := NewEngine(st).QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	if nlj, err = only.QueryContext(t.Context(), "", q); err != nil {
		t.Fatal(err)
	}
	return def, nlj
}

// TestHashJoinMatchesNLJ is a default ≡ NestedLoopsOnly differential on
// large multi-hop counts — a 2-hop chain, the triangle, whose closing
// steps the default engine fuses into a sorted intersection, and a
// 3-hop chain: both engines count the same, and not zero.
func TestHashJoinMatchesNLJ(t *testing.T) {
	st := bigChainStore(t)
	queries := []string{
		`PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?z }`,
		`PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?x }`,
		`PREFIX r: <http://pg/r/> SELECT (COUNT(?w) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?w }`,
	}
	for _, q := range queries {
		def, nlj := defaultAndNestedLoops(t, st, q)
		if def.Rows[0][0].Value != nlj.Rows[0][0].Value {
			t.Errorf("default %s != nested loops %s for %s", def.Rows[0][0].Value, nlj.Rows[0][0].Value, q)
		}
		if def.Rows[0][0].Value == "0" {
			t.Errorf("degenerate zero count for %s", q)
		}
	}
}

// TestHashJoinMatchesNLJRows is a default ≡ NestedLoopsOnly
// differential on full rows, order included: a 2-hop projection under
// DISTINCT and the triangle rows, which the default engine fuses.
func TestHashJoinMatchesNLJRows(t *testing.T) {
	st := bigChainStore(t)
	for _, q := range []string{
		`PREFIX r: <http://pg/r/> SELECT DISTINCT ?x ?z WHERE { ?x r:follows ?y . ?y r:follows ?z }`,
		`PREFIX r: <http://pg/r/> SELECT * WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?x }`,
	} {
		def, nlj := defaultAndNestedLoops(t, st, q)
		if def.Len() == 0 {
			t.Errorf("no rows for %s", q)
		}
		if def.String() != nlj.String() {
			t.Errorf("rows differ: %d vs %d rows for %s\n%s", def.Len(), nlj.Len(), q, firstDiff(nlj.String(), def.String()))
		}
	}
}

// TestHashJoinWithGraphContext is a default ≡ NestedLoopsOnly
// differential inside GRAPH clauses: a 2-hop count whose steps bind
// named-graph quads (every edge has its own graph) and the transitive
// triangle x→y→z, x→z over them, both of which must keep the
// graph-context constraint.
func TestHashJoinWithGraphContext(t *testing.T) {
	st := store.New()
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	n := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/n%d", i)) }
	e := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/e%d", i)) }
	var quads []rdf.Quad
	const nodes = 120
	id := 0
	for i := 0; i < nodes; i++ {
		for j := 0; j < 20; j++ {
			quads = append(quads, rdf.NewQuad(n(i), follows, n((i+j+1)%nodes), e(id)))
			id++
		}
	}
	if _, err := st.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		want int
	}{
		{`PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE {
		GRAPH ?g1 { ?x r:follows ?y } GRAPH ?g2 { ?y r:follows ?z } }`, nodes * 20 * 20},
		{`PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE {
		GRAPH ?g1 { ?x r:follows ?y } GRAPH ?g2 { ?y r:follows ?z } GRAPH ?g3 { ?x r:follows ?z } }`, nodes * 190},
	} {
		def, nlj := defaultAndNestedLoops(t, st, c.q)
		if want := fmt.Sprint(c.want); def.Rows[0][0].Value != want || nlj.Rows[0][0].Value != want {
			t.Errorf("counts: default=%s nested loops=%s want %s\n%s", def.Rows[0][0].Value, nlj.Rows[0][0].Value, want, c.q)
		}
	}
}
