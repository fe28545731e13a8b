package sparql

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestModifyInsertWhere(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	// Materialize inverse followedBy edges.
	res, err := e.Update("fig1", testPrologue+`
		INSERT { ?y <http://x/followedBy> ?x } WHERE { ?x rel:follows ?y }`)
	if err != nil || res.Inserted != 1 {
		t.Fatalf("insert-where: %+v, %v", res, err)
	}
	n, err := e.Count("fig1", `SELECT ?x WHERE { ?x <http://x/followedBy> ?y }`)
	if err != nil || n != 1 {
		t.Fatalf("materialized rows = %d, %v", n, err)
	}
}

func TestModifyDeleteInsertWhere(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	_, err := e.Update("m", testPrologue+`INSERT DATA {
		<http://pg/v1> key:age "23"^^<http://www.w3.org/2001/XMLSchema#int> .
		<http://pg/v2> key:age "22"^^<http://www.w3.org/2001/XMLSchema#int> }`)
	if err != nil {
		t.Fatal(err)
	}
	// Rename the key:age property to key:years (the paper's §2.1
	// DELETE-and-INSERT update pattern).
	res, err := e.Update("m", testPrologue+`
		DELETE { ?s key:age ?v } INSERT { ?s key:years ?v } WHERE { ?s key:age ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 || res.Inserted != 2 {
		t.Fatalf("modify result: %+v", res)
	}
	if n, _ := e.Count("m", testPrologue+`SELECT ?s WHERE { ?s key:age ?v }`); n != 0 {
		t.Errorf("old property still present: %d", n)
	}
	if n, _ := e.Count("m", testPrologue+`SELECT ?s WHERE { ?s key:years ?v }`); n != 2 {
		t.Errorf("new property rows = %d", n)
	}
}

func TestModifyDeleteOnlyTemplate(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	// Delete only the edge-KV quads of the follows edge (GRAPH form).
	res, err := e.Update("fig1", testPrologue+`
		DELETE { GRAPH ?g { ?g key:since ?v } } WHERE { GRAPH ?g { ?g key:since ?v } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d", res.Deleted)
	}
	// Topology must be intact.
	if n, _ := e.Count("fig1", testPrologue+`SELECT ?x WHERE { ?x rel:follows ?y }`); n != 1 {
		t.Error("topology quad lost")
	}
}

func TestModifyWhereEvaluatedBeforeWrites(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	_, err := e.Update("m", `INSERT DATA { <http://a> <http://next> <http://b> . <http://b> <http://next> <http://c> }`)
	if err != nil {
		t.Fatal(err)
	}
	// Shift every chain link: the WHERE must see the ORIGINAL state, so
	// exactly 2 hop edges are inserted, not a transitive cascade.
	res, err := e.Update("m", `
		INSERT { ?x <http://hop> ?y } WHERE { ?x <http://next> ?y }`)
	if err != nil || res.Inserted != 2 {
		t.Fatalf("modify: %+v, %v", res, err)
	}
}

func TestUpdateRejectsGarbage(t *testing.T) {
	e := NewEngine(store.New())
	for _, bad := range []string{
		`DELETE { ?x <http://p> ?y }`,                     // missing WHERE
		`INSERT { ?x <http://p> ?y } WHEREISH { }`,        // typo
		`DELETE { ?x <http://p>+ ?y } WHERE { ?x ?p ?y }`, // path in template
	} {
		if _, err := e.Update("m", bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestModifyInsertIntoNamedGraphTemplate(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	if _, err := e.Update("m", `INSERT DATA { <http://a> <http://p> <http://b> }`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Update("m", `
		INSERT { GRAPH <http://g> { ?x <http://p2> ?y } } WHERE { ?x <http://p> ?y }`)
	if err != nil || res.Inserted != 1 {
		t.Fatalf("insert into graph: %+v, %v", res, err)
	}
	if !st.View().Contains("m", rdf.NewQuad(rdf.NewIRI("http://a"), rdf.NewIRI("http://p2"), rdf.NewIRI("http://b"), rdf.NewIRI("http://g"))) {
		t.Error("named-graph quad missing")
	}
}
