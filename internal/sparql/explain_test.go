package sparql

import (
	"strings"
	"testing"
)

// TestExplainAllOperators renders the plan of a query touching every
// operator, checking each contributes a line.
func TestExplainAllOperators(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	plan, err := e.Explain("", testPrologue+`
		SELECT ?x (COUNT(*) AS ?c) WHERE {
			{ SELECT ?x WHERE { ?x rel:follows ?y } }
			{ ?x key:name ?n } UNION { ?x key:age ?n }
			OPTIONAL { ?x key:age ?a }
			MINUS { ?x key:name "Nobody" }
			VALUES ?v { 1 2 }
			BIND (CONCAT("x-", STR(?n)) AS ?tag)
			?x rel:follows* ?z .
			FILTER (BOUND(?n))
		} GROUP BY ?x ORDER BY ?c LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SubSelect", "Union", "Optional", "Minus", "Values (2 rows)",
		"Bind ?tag", "PathClosure (*", "filter (pushed", "GroupAggregate", "OrderBy",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan lacks %q:\n%s", want, plan)
		}
	}

	plan, err = e.Explain("", testPrologue+`SELECT DISTINCT ?x WHERE { ?x rel:knows+ ?y . ?y rel:follows? ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "PathClosure (+") || !strings.Contains(plan, "PathClosure (?") {
		t.Errorf("closure kinds missing:\n%s", plan)
	}
	if !strings.Contains(plan, "Project (distinct)") {
		t.Errorf("distinct missing:\n%s", plan)
	}
}

// TestGraphOverComplexGroup exercises GRAPH wrapping a group that holds
// more than triple patterns (filters, unions).
func TestGraphOverComplexGroup(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?g ?v WHERE {
		GRAPH ?g {
			{ ?g key:since ?v } UNION { ?g key:firstMetAt ?v }
			FILTER (isLiteral(?v))
		}
	}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	for _, row := range res.Rows {
		if row[0].IsZero() {
			t.Errorf("graph var unbound: %v", row)
		}
	}
}

// TestNestedPathClosures drives closures whose inner path is itself a
// closure or a sequence.
func TestNestedPathClosures(t *testing.T) {
	st := fig1Store(t)
	// (follows|knows)+ from v1 reaches v2 (distinct).
	res := query(t, st, `SELECT ?y WHERE { <http://pg/v1> (rel:follows|rel:knows)+ ?y }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v2" {
		t.Fatalf("alt-plus res = %s", res)
	}
	// Nested closure: (follows*)+ — zero hops included, distinct nodes.
	res = query(t, st, `SELECT ?y WHERE { <http://pg/v1> (rel:follows*)+ ?y }`)
	if res.Len() != 2 { // v1 (zero) and v2
		t.Fatalf("nested closure rows = %d\n%s", res.Len(), res)
	}
	// Sequence inside a closure: (knows/^knows)+ = co-knowers of v1.
	res = query(t, st, `SELECT ?y WHERE { <http://pg/v1> (rel:knows/^rel:knows)+ ?y }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v1" {
		t.Fatalf("seq closure res = %s", res)
	}
	// Closure restricted to a constant graph.
	res = query(t, st, `SELECT ?y WHERE { GRAPH <http://pg/e3> { <http://pg/v1> rel:follows+ ?y } }`)
	if res.Len() != 1 {
		t.Fatalf("graph-scoped closure rows = %d", res.Len())
	}
	res = query(t, st, `SELECT ?y WHERE { GRAPH <http://pg/e4> { <http://pg/v1> rel:follows+ ?y } }`)
	if res.Len() != 0 {
		t.Fatalf("wrong-graph closure rows = %d", res.Len())
	}
}

// TestLimitFastPathWithExprProjection: the early-stop optimization must
// not engage when the projection computes expressions.
func TestLimitFastPathWithExprProjection(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT (STR(?n) AS ?s) WHERE { ?x key:name ?n } LIMIT 1`)
	if res.Len() != 1 || res.Rows[0][0].IsZero() {
		t.Fatalf("res = %s", res)
	}
}

func TestNumericLiteralLexing(t *testing.T) {
	st := fig1Store(t)
	// Decimal and double literals in FILTER expressions.
	res := query(t, st, `SELECT ?x WHERE { ?x key:age ?a FILTER (?a > 2.25e1 && ?a < 23.5) }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v1" {
		t.Fatalf("res = %s", res)
	}
}

func TestTable3QueriesParse(t *testing.T) {
	for name, q := range Table3Queries() {
		if _, err := Parse(q); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEngineStoreAccessor(t *testing.T) {
	st := fig1Store(t)
	if NewEngine(st).Store() != st {
		t.Error("Store() accessor broken")
	}
}

func TestExplainUnknownDataset(t *testing.T) {
	st := fig1Store(t)
	if _, err := NewEngine(st).Explain("missing", `SELECT ?x WHERE { ?x ?p ?y }`); err == nil {
		t.Error("unknown dataset accepted")
	}
	plan, err := NewEngine(st).Explain("", `SELECT ?x WHERE { ?x ?p ?y }`)
	if err != nil || !strings.Contains(plan, "<all models>") {
		t.Errorf("all-models dataset label missing: %v\n%s", err, plan)
	}
}
