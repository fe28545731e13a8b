package sparql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// socialStore builds a synthetic social graph big enough to cross the
// parallel thresholds: ~4000 follows edges (first-step scans fan out
// above parallelScanMinRows) over 800 nodes whose out-degree 5 widens
// a BFS frontier past parallelBFSMinFrontier within three hops.
func socialStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	const n = 800
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	name := rdf.NewIRI(rdf.KeyNS + "name")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/n%d", i)) }
	var quads []rdf.Quad
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 7, 31, 101, 257} {
			quads = append(quads, rdf.Quad{S: node(i), P: follows, O: node((i + d) % n)})
		}
		quads = append(quads, rdf.Quad{S: node(i), P: name, O: rdf.NewLiteral(fmt.Sprintf("user-%04d", i))})
	}
	if _, err := st.Load("social", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

// intraQueries are the plan shapes the tentpole parallelizes: multi-hop
// joins that flip to hash joins, a triangle count, property-path BFS,
// and an ordered projection.
var intraQueries = []string{
	`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c } LIMIT 2000`,
	`SELECT (COUNT(*) AS ?t) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`,
	`SELECT ?y WHERE { <http://pg/n0> rel:follows+ ?y } LIMIT 500`,
	`SELECT ?n WHERE { ?x rel:follows ?y . ?y key:name ?n } ORDER BY ?n LIMIT 100`,
	`SELECT ?a (COUNT(?c) AS ?foaf) WHERE { ?a rel:follows ?b . ?b rel:follows ?c } GROUP BY ?a ORDER BY DESC(?foaf) ?a LIMIT 20`,
}

// TestParallelMatchesSerial is the differential acceptance test: every
// query must produce byte-identical results at Parallelism=1 and 8,
// with the hash-join threshold lowered so the lazy switch engages.
func TestParallelMatchesSerial(t *testing.T) {
	st := socialStore(t)
	serial := NewEngine(st)
	serial.Parallelism = 1
	serial.HashJoinThreshold = 16
	parallel := NewEngine(st)
	parallel.Parallelism = 8
	parallel.HashJoinThreshold = 16
	for _, q := range intraQueries {
		want, err := serial.Query("", testPrologue+q)
		if err != nil {
			t.Fatalf("serial: %v\n%s", err, q)
		}
		got, err := parallel.Query("", testPrologue+q)
		if err != nil {
			t.Fatalf("parallel: %v\n%s", err, q)
		}
		if got.String() != want.String() {
			t.Errorf("parallel result differs from serial for:\n%s\n--- serial ---\n%s\n--- parallel ---\n%s",
				q, want.String(), got.String())
		}
	}
	snap := parallel.ParallelStats()
	if snap.Queries == 0 || snap.Workers == 0 || snap.Morsels == 0 {
		t.Errorf("parallel engine never went parallel: %+v", snap)
	}
	if snap.ActiveWorkers != 0 {
		t.Errorf("leaked workers: %d", snap.ActiveWorkers)
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}

// TestParallelBudgetExhaustion trips MaxBindings in the middle of a
// parallel run: the first worker to exceed it must latch the error and
// unwind every other worker with no goroutine or cursor leaks.
func TestParallelBudgetExhaustion(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	e.Parallelism = 8
	e.HashJoinThreshold = 16
	e.Limits = guard.Budget{MaxWork: 3000}
	q := testPrologue + `SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`
	_, err := e.QueryContext(context.Background(), "", q)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
	if w := e.ParallelStats().ActiveWorkers; w != 0 {
		t.Errorf("leaked workers after budget trip: %d", w)
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors after budget trip: %d", g)
	}
}

// TestParallelCancellation cancels the context before execution; the
// guard notices within one poll interval no matter which worker sees it
// first, and shutdown must leave no workers or cursors behind.
func TestParallelCancellation(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	e.Parallelism = 8
	e.HashJoinThreshold = 16
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := testPrologue + `SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`
	_, err := e.QueryContext(ctx, "", q)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if w := e.ParallelStats().ActiveWorkers; w != 0 {
		t.Errorf("leaked workers after cancellation: %d", w)
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors after cancellation: %d", g)
	}
}

// TestParallelEarlyStop stops consuming mid-stream (LIMIT): the merge
// loop halts the workers, which must drain without leaking the
// unclaimed morsel cursors.
func TestParallelEarlyStop(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	e.Parallelism = 8
	res, err := e.Query("", testPrologue+`SELECT ?a ?b WHERE { ?a rel:follows ?b } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	if w := e.ParallelStats().ActiveWorkers; w != 0 {
		t.Errorf("leaked workers after early stop: %d", w)
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors after early stop: %d", g)
	}
}

// TestExplainReportsParallelism: Explain names the execution mode so
// operators can see which plans fan out.
func TestExplainReportsParallelism(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	e.Parallelism = 8
	out, err := e.Explain("", testPrologue+`SELECT ?a WHERE { ?a rel:follows ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Parallel (morsel-driven") {
		t.Errorf("explain missing parallel line:\n%s", out)
	}
	e.Parallelism = 1
	out, err = e.Explain("", testPrologue+`SELECT ?a WHERE { ?a rel:follows ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Serial (parallelism 1") {
		t.Errorf("explain missing serial line:\n%s", out)
	}
}
