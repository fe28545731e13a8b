package sparql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
)

const testPrologue = `
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX rel: <http://pg/r/>
PREFIX key: <http://pg/k/>
PREFIX r: <http://pg/r/>
PREFIX k: <http://pg/k/>
`

func mustParseQuery(t *testing.T, q string) *Query {
	t.Helper()
	parsed, err := Parse(testPrologue + q)
	if err != nil {
		t.Fatalf("Parse(%s): %v", q, err)
	}
	return parsed
}

func TestParseSimpleSelect(t *testing.T) {
	q := mustParseQuery(t, `SELECT ?x ?y WHERE { ?x rel:follows ?y }`)
	if len(q.Select.Projection) != 2 {
		t.Fatalf("projection = %v", q.Select.Projection)
	}
	if len(q.Select.Where.Elems) != 1 {
		t.Fatalf("where elems = %d", len(q.Select.Where.Elems))
	}
	tp := q.Select.Where.Elems[0].(*TriplePattern)
	if !tp.S.IsVar || tp.S.Var != "x" {
		t.Errorf("subject = %+v", tp.S)
	}
	p := tp.P.(PathIRI)
	if p.IRI.Value != rdf.RelNS+"follows" {
		t.Errorf("predicate = %v", p.IRI)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	q := mustParseQuery(t, `SELECT ?e WHERE {
		?e rdf:subject ?x ; rdf:predicate rel:follows ; rdf:object ?y .
		?x key:name "Amy" , "Mira" .
	}`)
	if n := len(q.Select.Where.Elems); n != 5 {
		t.Fatalf("expected 5 patterns from ; and , lists, got %d", n)
	}
	// The ';' list shares the subject.
	for _, e := range q.Select.Where.Elems[:3] {
		tp := e.(*TriplePattern)
		if !tp.S.IsVar || tp.S.Var != "e" {
			t.Errorf("shared subject broken: %+v", tp.S)
		}
	}
}

func TestParseGraphClause(t *testing.T) {
	q := mustParseQuery(t, `SELECT ?x WHERE {
		GRAPH ?g { ?x rel:follows ?y . ?g key:since ?yr }
		?x key:name ?n
	}`)
	gp := q.Select.Where.Elems[0].(*GraphPattern)
	if !gp.Graph.IsVar || gp.Graph.Var != "g" {
		t.Fatalf("graph var = %+v", gp.Graph)
	}
	if len(gp.Group.Elems) != 2 {
		t.Fatalf("graph group has %d elems", len(gp.Group.Elems))
	}
	if _, ok := q.Select.Where.Elems[1].(*TriplePattern); !ok {
		t.Error("pattern after GRAPH missing")
	}
}

func TestParseFilters(t *testing.T) {
	q := mustParseQuery(t, `SELECT ?x WHERE {
		?x ?k ?v FILTER (isLiteral(?v))
		FILTER (?v != "x" && STRLEN(STR(?v)) > 2 || BOUND(?k))
	}`)
	nFilters := 0
	for _, e := range q.Select.Where.Elems {
		if _, ok := e.(*FilterElem); ok {
			nFilters++
		}
	}
	if nFilters != 2 {
		t.Fatalf("filters = %d", nFilters)
	}
}

func TestParsePropertyPaths(t *testing.T) {
	q := mustParseQuery(t, `SELECT ?y WHERE {
		<http://pg/n1> r:follows/r:follows ?y .
		?a (r:knows|r:follows) ?b .
		?c r:follows+ ?d .
		?e ^r:follows ?f .
		?g r:follows* ?h .
		?i r:knows? ?j .
	}`)
	tp := q.Select.Where.Elems[0].(*TriplePattern)
	if _, ok := tp.P.(PathSeq); !ok {
		t.Errorf("expected PathSeq, got %T", tp.P)
	}
	if _, ok := q.Select.Where.Elems[1].(*TriplePattern).P.(PathAlt); !ok {
		t.Error("expected PathAlt")
	}
	if _, ok := q.Select.Where.Elems[2].(*TriplePattern).P.(PathPlus); !ok {
		t.Error("expected PathPlus")
	}
	if _, ok := q.Select.Where.Elems[3].(*TriplePattern).P.(PathInverse); !ok {
		t.Error("expected PathInverse")
	}
	if _, ok := q.Select.Where.Elems[4].(*TriplePattern).P.(PathStar); !ok {
		t.Error("expected PathStar")
	}
	if _, ok := q.Select.Where.Elems[5].(*TriplePattern).P.(PathOpt); !ok {
		t.Error("expected PathOpt")
	}
}

func TestParseAggregatesAndSubquery(t *testing.T) {
	// EQ9 from the paper, verbatim shape.
	q := mustParseQuery(t, `SELECT ?inDeg (COUNT(*) as ?cnt)
		WHERE { SELECT ?n2 (COUNT(*) as ?inDeg)
			WHERE { ?n1 (r:knows|r:follows) ?n2 }
			GROUP BY ?n2 } GROUP BY ?inDeg ORDER BY DESC(?inDeg)`)
	if len(q.Select.Projection) != 2 {
		t.Fatalf("projection = %+v", q.Select.Projection)
	}
	if q.Select.Projection[1].Expr == nil {
		t.Fatal("COUNT(*) AS ?cnt lost")
	}
	if len(q.Select.GroupBy) != 1 || len(q.Select.OrderBy) != 1 || !q.Select.OrderBy[0].Desc {
		t.Fatalf("modifiers: groupBy=%v orderBy=%v", q.Select.GroupBy, q.Select.OrderBy)
	}
	ss, ok := q.Select.Where.Elems[0].(*SubSelect)
	if !ok {
		t.Fatalf("inner subselect missing: %T", q.Select.Where.Elems[0])
	}
	if len(ss.Select.GroupBy) != 1 {
		t.Error("inner GROUP BY missing")
	}
}

func TestParseUnionOptionalValues(t *testing.T) {
	q := mustParseQuery(t, `SELECT * WHERE {
		{ ?x rel:follows ?y } UNION { ?x rel:knows ?y }
		OPTIONAL { ?x key:name ?n }
		VALUES ?x { <http://pg/v1> <http://pg/v2> }
	}`)
	if _, ok := q.Select.Where.Elems[0].(*UnionPattern); !ok {
		t.Errorf("union missing: %T", q.Select.Where.Elems[0])
	}
	if _, ok := q.Select.Where.Elems[1].(*OptionalPattern); !ok {
		t.Errorf("optional missing: %T", q.Select.Where.Elems[1])
	}
	v, ok := q.Select.Where.Elems[2].(*ValuesElem)
	if !ok || len(v.Rows) != 2 {
		t.Errorf("values missing or wrong: %+v", q.Select.Where.Elems[2])
	}
}

func TestParseLiteralsInPatterns(t *testing.T) {
	q := mustParseQuery(t, `SELECT ?n WHERE {
		?n key:hasTag "#webseries" .
		?n key:age 23 .
		?n key:score 1.5 .
		?n key:active true .
		?n key:lang "train"@en-us .
		?n key:since "2007"^^<http://www.w3.org/2001/XMLSchema#int> .
	}`)
	objs := make([]rdf.Term, 0, 6)
	for _, e := range q.Select.Where.Elems {
		objs = append(objs, e.(*TriplePattern).O.Term)
	}
	if !objs[0].Equal(rdf.NewLiteral("#webseries")) {
		t.Errorf("string literal: %v", objs[0])
	}
	if !objs[1].Equal(rdf.NewTypedLiteral("23", rdf.XSDInteger)) {
		t.Errorf("integer literal: %v", objs[1])
	}
	if !objs[2].Equal(rdf.NewTypedLiteral("1.5", rdf.XSDDecimal)) {
		t.Errorf("decimal literal: %v", objs[2])
	}
	if !objs[3].Equal(rdf.NewBoolean(true)) {
		t.Errorf("boolean literal: %v", objs[3])
	}
	if !objs[4].Equal(rdf.NewLangLiteral("train", "en-us")) {
		t.Errorf("lang literal: %v", objs[4])
	}
	if !objs[5].Equal(rdf.NewInt(2007)) {
		t.Errorf("typed literal: %v", objs[5])
	}
}

func TestParseDistinctLimitOffset(t *testing.T) {
	q := mustParseQuery(t, `SELECT DISTINCT ?x WHERE { ?x ?p ?y } LIMIT 10 OFFSET 5`)
	if !q.Select.Distinct || q.Select.Limit != 10 || q.Select.Offset != 5 {
		t.Fatalf("modifiers: %+v", q.Select)
	}
}

func TestParseErrorsSPARQL(t *testing.T) {
	bad := []string{
		`SELECT WHERE { ?x ?p ?y }`,                   // empty projection
		`SELECT ?x { ?x nope:foo ?y }`,                // unknown prefix
		`SELECT ?x WHERE { ?x ?p }`,                   // incomplete triple
		`SELECT ?x WHERE { ?x ?p ?y `,                 // unterminated group
		`FOO ?x WHERE { ?x ?p ?y }`,                   // not a select
		`SELECT ?x WHERE { ?x ?p ?y } GROUP ?x`,       // GROUP without BY
		`SELECT ?x WHERE { ?x ?p ?y } LIMIT x`,        // bad limit
		`SELECT (COUNT(*) ?c) WHERE { ?x ?p ?y }`,     // missing AS
		`SELECT ?x WHERE { ?x ?p "unterminated }`,     // bad string
		`SELECT (SUM(*) AS ?s) WHERE { ?x ?p ?y }`,    // * only for COUNT
		`SELECT ?x WHERE { ?x ?p ?y } extra`,          // trailing tokens
		`SELECT ?x WHERE { ?x ?p ?y . ?x BADFN(?y) }`, // garbage
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("accepted invalid query: %s", s)
		}
	}
}

func TestParseUpdateForms(t *testing.T) {
	u, err := ParseUpdate(testPrologue + `
		INSERT DATA { <http://pg/v1> rel:follows <http://pg/v2> .
			GRAPH <http://pg/e3> { <http://pg/v1> rel:follows <http://pg/v2> } } ;
		DELETE DATA { <http://pg/v1> rel:follows <http://pg/v2> } ;
		DELETE WHERE { ?x rel:knows ?y }`)
	if err != nil {
		t.Fatalf("ParseUpdate: %v", err)
	}
	if len(u.Ops) != 3 {
		t.Fatalf("ops = %d", len(u.Ops))
	}
	ins := u.Ops[0].(InsertData)
	if len(ins.Quads) != 2 {
		t.Fatalf("insert quads = %d", len(ins.Quads))
	}
	if ins.Quads[1].G.Value != "http://pg/e3" {
		t.Errorf("graph quad = %v", ins.Quads[1])
	}
	if _, ok := u.Ops[1].(DeleteData); !ok {
		t.Error("second op should be DELETE DATA")
	}
	if _, ok := u.Ops[2].(DeleteWhere); !ok {
		t.Error("third op should be DELETE WHERE")
	}
}

func TestParseUpdateErrors(t *testing.T) {
	bad := []string{
		`INSERT { ?x ?p ?y }`,                      // no DATA
		`DELETE FROM x`,                            // unsupported form
		`INSERT DATA { ?x <http://p> <http://o> }`, // var in ground data
		``, // empty
	}
	for _, s := range bad {
		if _, err := ParseUpdate(s); err == nil {
			t.Errorf("accepted invalid update: %s", s)
		}
	}
}

func TestParseAllPaperQueries(t *testing.T) {
	// Every query from Table 10 must parse.
	for name, q := range PaperQueries() {
		if _, err := Parse(q); err != nil {
			t.Errorf("%s does not parse: %v\n%s", name, err, q)
		}
	}
}

func TestParseTrailingDotAfterPName(t *testing.T) {
	// A prefixed name directly followed by the triple terminator: the
	// dot must not be swallowed into the local name.
	q, err := Parse(`PREFIX pg: <http://pg/> PREFIX rel: <http://pg/r/>
		SELECT ?x WHERE { ?x rel:follows pg:v1. }`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tp := q.Select.Where.Elems[0].(*TriplePattern)
	if tp.O.Term.Value != "http://pg/v1" {
		t.Errorf("object = %v", tp.O.Term)
	}
	if !strings.Contains(tp.O.Term.Value, "v1") {
		t.Errorf("local name mangled: %v", tp.O.Term)
	}
}

// TestParseConflictingProjections is the reproducer for a SELECT that
// named one variable twice: the reply's head listed it twice and its
// binding silently carried whichever column was written last. SPARQL 1.1
// §18.2.1 forbids (expr AS ?v) when ?v is already in scope; a repeated
// plain variable is projected once.
func TestParseConflictingProjections(t *testing.T) {
	rejected := []string{
		`SELECT ?o (?s AS ?o) WHERE { ?s ?p ?o }`,                      // projected and in WHERE
		`SELECT (?s AS ?o) WHERE { ?s ?p ?o }`,                         // in scope in WHERE
		`SELECT (?s AS ?x) (?p AS ?x) WHERE { ?s ?p ?o }`,              // projected twice
		`SELECT ?x (?s AS ?x) WHERE { ?s ?p ?o }`,                      // projected, not in WHERE
		`SELECT (1 AS ?g) WHERE { GRAPH ?g { ?s ?p ?o } }`,             // GRAPH variable
		`SELECT (1 AS ?p) WHERE { ?s ?p ?o }`,                          // predicate variable
		`SELECT (1 AS ?y) WHERE { ?s ?p ?o OPTIONAL { ?o ?q ?y } }`,    // OPTIONAL
		`SELECT (1 AS ?y) WHERE { { ?s ?p ?y } UNION { ?s ?p ?o } }`,   // UNION branch
		`SELECT (1 AS ?b) WHERE { ?s ?p ?o BIND(2 AS ?b) }`,            // BIND
		`SELECT (1 AS ?v) WHERE { VALUES ?v { 1 2 } }`,                 // VALUES
		`SELECT (1 AS ?o) WHERE { { SELECT ?o WHERE { ?s ?p ?o } } }`,  // sub-SELECT projection
		`SELECT (1 AS ?o) WHERE { { SELECT * WHERE { ?s ?p ?o } } }`,   // sub-SELECT *
		`SELECT ?s WHERE { { SELECT (?s AS ?o) WHERE { ?s ?p ?o } } }`, // inside a sub-SELECT
	}
	for _, s := range rejected {
		if _, err := Parse(s); err == nil {
			t.Errorf("accepted conflicting projection: %s", s)
		}
	}
	accepted := []string{
		`SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s`,
		`SELECT (?s AS ?z) WHERE { ?s ?p ?o FILTER(?s != ?z) }`,        // FILTER does not bind
		`SELECT (?s AS ?z) WHERE { ?s ?p ?o MINUS { ?s ?q ?z } }`,      // nor does MINUS
		`SELECT (?s AS ?z) WHERE { { SELECT ?s WHERE { ?s ?p ?z } } }`, // ?z not projected out
	}
	for _, s := range accepted {
		if _, err := Parse(s); err != nil {
			t.Errorf("rejected valid query %s: %v", s, err)
		}
	}

	q := mustParseQuery(t, `SELECT ?s ?s ?o ?s WHERE { ?s ?p ?o }`)
	var got []string
	for _, it := range q.Select.Projection {
		got = append(got, it.Var)
	}
	if strings.Join(got, " ") != "s o" {
		t.Errorf("repeated variable projection = %v, want [s o]", got)
	}
	res, err := NewEngine(fig1Store(t)).Query("", testPrologue+`SELECT ?x ?x ?n WHERE { ?x key:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Vars, " ") != "x n" {
		t.Errorf("result head = %v, want [x n]", res.Vars)
	}
}
