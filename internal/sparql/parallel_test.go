package sparql

import (
	"fmt"
	"sync"
	"testing"
)

// TestParallelQueries runs many queries concurrently against one engine
// (the HTTP endpoint's usage pattern). Run with -race: dictionary
// interning during expression evaluation and scan-counter updates must
// be safe under concurrent readers.
func TestParallelQueries(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	queries := []string{
		testPrologue + `SELECT ?x ?y WHERE { ?x rel:follows ?y }`,
		testPrologue + `SELECT (COUNT(*) AS ?c) WHERE { ?x ?p ?v FILTER (isLiteral(?v)) }`,
		testPrologue + `SELECT ?g WHERE { GRAPH ?g { ?x rel:follows ?y } }`,
		testPrologue + `SELECT ?n WHERE { ?x key:name ?n } ORDER BY ?n`,
		testPrologue + `SELECT ?y WHERE { <http://pg/v1> (rel:follows|rel:knows)+ ?y }`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[i%len(queries)]
				res, err := e.QueryContext(t.Context(), "", q)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() == 0 {
					errs <- fmt.Errorf("empty result for %s", q)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelQueriesWithUpdates mixes readers with writers.
func TestParallelQueriesWithUpdates(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				_, err := e.UpdateContext(t.Context(), "scratch", fmt.Sprintf(
					`INSERT DATA { <http://pg/w%d-%d> <http://pg/k/name> "tmp" }`, w, i))
				if err != nil {
					errs <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := e.QueryContext(t.Context(), "", testPrologue+`SELECT ?x WHERE { ?x key:name ?n }`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := countRows(t, e, "scratch", `SELECT ?x WHERE { ?x <http://pg/k/name> "tmp" }`); n != 120 {
		t.Fatalf("inserted rows = %d", n)
	}
}
