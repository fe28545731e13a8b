package sparql

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// fuzzStore builds one small store shared by all fuzz executions: a
// handful of quads so parsed queries that survive compilation also
// exercise the executor paths (joins, paths, aggregates) cheaply.
func fuzzStore() *store.Store {
	st := store.New()
	n := func(s string) rdf.Term { return rdf.NewIRI("http://pg/" + s) }
	quads := []rdf.Quad{
		{S: n("a"), P: n("follows"), O: n("b")},
		{S: n("b"), P: n("follows"), O: n("c")},
		{S: n("c"), P: n("follows"), O: n("a")},
		{S: n("a"), P: n("name"), O: rdf.NewLiteral("alice")},
		{S: n("b"), P: n("age"), O: rdf.NewTypedLiteral("7", rdf.XSDInteger)},
		{S: n("a"), P: n("knows"), O: n("c"), G: n("g1")},
	}
	if _, err := st.Load("m", quads); err != nil {
		panic(err)
	}
	return st
}

// FuzzParseAndExec drives the SPARQL parsers and, for accepted texts,
// the guarded engine with arbitrary input. Properties:
//
//  1. Parse and ParseUpdate never panic;
//  2. executing an accepted query of any form through ExecContext, or an
//     accepted update through UpdateContext on a fresh store, under a
//     strict budget never returns guard.ErrInternal — the kind reserved
//     for recovered executor panics, so any occurrence is a real crash
//     the recover() masked.
//
// Seeds are the paper's EQ1–EQ12 plus grammar corner cases.
func FuzzParseAndExec(f *testing.F) {
	for _, q := range PaperQueries() {
		f.Add(q)
	}
	for _, q := range EQ11Queries("http://pg/a") {
		f.Add(q)
	}
	seeds := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"SELECT ?s (COUNT(*) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(*) > 1) ORDER BY DESC(?c) LIMIT 3 OFFSET 1",
		"ASK { FILTER NOT EXISTS { ?s ?p ?o } }",
		"CONSTRUCT { ?s ?p ?o } WHERE { GRAPH ?g { ?s ?p ?o } }",
		"DESCRIBE <http://pg/a>",
		"SELECT ?x WHERE { ?x <http://pg/follows>+ ?y . OPTIONAL { ?y <http://pg/name> ?n } FILTER(!BOUND(?n) || STRLEN(?n) > 2) }",
		"SELECT ?s WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } MINUS { ?s <http://pg/age> ?a } }",
		"SELECT (1+2*3 AS ?x) (IF(true, \"a\", \"b\") AS ?y) WHERE {}",
		"INSERT DATA { <http://pg/x> <http://pg/p> \"v\" }",
		"DELETE DATA { <http://pg/a> <http://pg/follows> <http://pg/b> . GRAPH <http://pg/g1> { <http://pg/a> <http://pg/knows> <http://pg/c> } }",
		"DELETE WHERE { ?s <http://pg/gone> ?o }",
		"DELETE { ?x <http://pg/follows> ?y } INSERT { GRAPH <http://pg/g2> { ?y <http://pg/followedBy> ?x } } WHERE { ?x <http://pg/follows> ?y OPTIONAL { ?y <http://pg/name> ?n } }",
		"PREFIX : <http://pg/>\nSELECT ?v WHERE { :a :name ?v }",
		"SELECT * WHERE { ?s ?p \"unterminated",
		"SELECT ( WHERE {",
		"SELECT * WHERE { ?s <p>|^<q>/<r>* ?o }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range regressionInputs {
		f.Add(s)
	}
	budget := guard.Budget{Timeout: 200 * time.Millisecond, MaxRows: 256, MaxWork: 4096}
	eng := NewEngine(fuzzStore())
	eng.Limits = budget
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err == nil {
			ctx, cancel := context.WithTimeout(t.Context(), time.Second)
			_, execErr := eng.ExecContext(ctx, "m", src)
			cancel()
			if errors.Is(execErr, guard.ErrInternal) {
				t.Fatalf("executor panicked (recovered as guard.ErrInternal): %v\nquery: %q", execErr, src)
			}
		}
		// Updates mutate their store, so each runs on a fresh one.
		if _, err := ParseUpdate(src); err == nil {
			ue := NewEngine(fuzzStore())
			ue.Limits = budget
			ctx, cancel := context.WithTimeout(t.Context(), time.Second)
			_, execErr := ue.UpdateContext(ctx, "m", src)
			cancel()
			if errors.Is(execErr, guard.ErrInternal) {
				t.Fatalf("update panicked (recovered as guard.ErrInternal): %v\nupdate: %q", execErr, src)
			}
		}
	})
}
