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

// bigChainStore builds a graph large enough to push intermediate
// cardinalities past the hash-join switch threshold.
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

// TestHashJoinMatchesNLJ verifies the adaptive executor's hash-join
// switch is invisible: large multi-hop queries return the same answers
// with hash joins enabled and with forced pure NLJ.
func TestHashJoinMatchesNLJ(t *testing.T) {
	st := bigChainStore(t)
	queries := []string{
		`PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?z }`,
		`PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?x }`,
		`PREFIX r: <http://pg/r/> SELECT (COUNT(?w) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?w }`,
	}
	adaptive := NewEngine(st)
	nljOnly := NewEngine(st)
	nljOnly.DisableHashJoin = true
	for _, q := range queries {
		a, err := adaptive.QueryContext(t.Context(), "", q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := nljOnly.QueryContext(t.Context(), "", q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows[0][0].Value != b.Rows[0][0].Value {
			t.Errorf("adaptive %s != nlj %s for %s", a.Rows[0][0].Value, b.Rows[0][0].Value, q)
		}
		if a.Rows[0][0].Value == "0" {
			t.Errorf("degenerate zero count for %s", q)
		}
	}
}

// TestHashJoinMatchesNLJRows compares full row sets (not just counts)
// on a projection query that crosses the switch threshold.
func TestHashJoinMatchesNLJRows(t *testing.T) {
	st := bigChainStore(t)
	q := `PREFIX r: <http://pg/r/> SELECT DISTINCT ?x ?z WHERE { ?x r:follows ?y . ?y r:follows ?z }`
	adaptive := NewEngine(st)
	nljOnly := NewEngine(st)
	nljOnly.DisableHashJoin = true
	a, err := adaptive.QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nljOnly.QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := rowSet(a), rowSet(b)
	if ra != rb {
		t.Errorf("row sets differ: %d vs %d distinct rows", a.Len(), b.Len())
	}
}

func rowSet(r *Results) string {
	var rows []string
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, t := range row {
			parts[i] = t.String()
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestHashJoinWithGraphContext crosses the threshold inside a GRAPH
// clause, checking quads with named graphs survive the hash path.
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
	q := `PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE {
		GRAPH ?g1 { ?x r:follows ?y } GRAPH ?g2 { ?y r:follows ?z } }`
	adaptive := NewEngine(st)
	nljOnly := NewEngine(st)
	nljOnly.DisableHashJoin = true
	a, err := adaptive.QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nljOnly.QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(nodes * 20 * 20)
	if a.Rows[0][0].Value != want || b.Rows[0][0].Value != want {
		t.Errorf("counts: adaptive=%s nlj=%s want %s", a.Rows[0][0].Value, b.Rows[0][0].Value, want)
	}
}
