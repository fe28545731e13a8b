package sparql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// vectorDiffQueries covers a lone BGP's shapes (filters, grouping,
// LIMIT/OFFSET, DISTINCT, ORDER BY) and shapes whose BGPs feed other
// operators (UNION, OPTIONAL, property paths, VALUES feeding a BGP).
// TestExecutorGolden pins their results.
var vectorDiffQueries = []string{
	`SELECT ?a ?b WHERE { ?a rel:follows ?b }`,
	`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c } LIMIT 2000`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
	`SELECT (COUNT(*) AS ?t) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`,
	`SELECT ?a ?b WHERE { ?a rel:follows ?b . FILTER(?a != ?b) }`,
	`SELECT ?a ?b WHERE { ?a rel:follows ?b . FILTER(?a = ?b) }`,
	`SELECT DISTINCT ?a WHERE { ?a rel:follows ?b }`,
	`SELECT ?a (COUNT(?c) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c } GROUP BY ?a ORDER BY DESC(?n) ?a LIMIT 25`,
	`SELECT (MIN(?b) AS ?lo) (MAX(?b) AS ?hi) (COUNT(?b) AS ?n) WHERE { ?a rel:follows ?b }`,
	`SELECT (SUM(?n) AS ?s) WHERE { { SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?a } }`,
	`SELECT ?a ?b WHERE { { ?a rel:follows ?b } UNION { ?b rel:follows ?a } } LIMIT 500`,
	`SELECT ?a ?c WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } } LIMIT 500`,
	`SELECT ?y WHERE { <http://pg/v0> rel:follows+ ?y } LIMIT 200`,
	`SELECT ?a ?b WHERE { VALUES ?a { <http://pg/v1> <http://pg/v2> <http://pg/v7> } ?a rel:follows ?b }`,
	`SELECT ?a WHERE { ?a rel:follows ?a }`,
}

// resultRows returns a query's result rows (Results.String lines
// without the header), failing the test on error.
func resultRows(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	res, err := e.Query("", testPrologue+q)
	if err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
	return strings.Split(strings.TrimSuffix(res.String(), "\n"), "\n")[1:]
}

// TestVectorizedEmptyBatches drives filters that reject everything (the
// whole stream, and every row of some batches but not others): the
// selection vector must compact to empty without emitting, and a
// filtered result must be the unfiltered one with the rejected rows
// dropped, order kept.
func TestVectorizedEmptyBatches(t *testing.T) {
	st := egoNetStore(t, 600, 5)
	e := NewEngine(st)
	if rows := resultRows(t, e, `SELECT ?a ?b WHERE { ?a rel:follows ?b . FILTER(false) }`); len(rows) != 0 {
		t.Errorf("FILTER(false) returned %d rows", len(rows))
	}
	if rows := resultRows(t, e, `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . FILTER(false) }`); len(rows) != 1 || !strings.HasPrefix(rows[0], `"0"`) {
		t.Errorf("COUNT under FILTER(false) = %v", rows)
	}
	// A sparse survivor set: most batches compact to empty.
	var want []string
	for _, row := range resultRows(t, e, `SELECT ?a WHERE { ?a rel:follows ?b }`) {
		if row == "<http://pg/v7>" {
			want = append(want, row)
		}
	}
	got := resultRows(t, e, `SELECT ?a WHERE { ?a rel:follows ?b . FILTER(?a = <http://pg/v7>) }`)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sparse filter: got %d rows, want %d", len(got), len(want))
	}
}

// TestVectorizedLimitOffsetBatchBoundary sweeps LIMIT and OFFSET across
// the batch capacity (one row under, exactly at, one over, multiple
// batches) so off-by-one errors at batch boundaries cannot hide: the
// answer must be rows[o:o+k] of the unlimited query.
func TestVectorizedLimitOffsetBatchBoundary(t *testing.T) {
	st := egoNetStore(t, 1200, 4) // 4800 result rows for the single pattern
	e := NewEngine(st)
	const q = `SELECT ?a ?b WHERE { ?a rel:follows ?b }`
	all := resultRows(t, e, q)
	for _, limit := range []int{1, vecRampStart, vecRampStart + 1, batchRows - 1, batchRows, batchRows + 1, 2*batchRows + 5} {
		for _, offset := range []int{0, 1, batchRows - 1, batchRows, batchRows + 1} {
			got := resultRows(t, e, fmt.Sprintf(`%s OFFSET %d LIMIT %d`, q, offset, limit))
			if want := sliceRows(all, offset, limit); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("limit=%d offset=%d: got %d rows, not rows[%d:%d] of the unlimited query",
					limit, offset, len(got), offset, offset+limit)
			}
		}
	}
}

// TestVectorizedDistinctAcrossBatches: duplicates of the same ?a are
// spread thousands of rows apart (different batches); DISTINCT must
// still equal the full result deduplicated, first occurrences kept.
func TestVectorizedDistinctAcrossBatches(t *testing.T) {
	st := egoNetStore(t, 1500, 4)
	e := NewEngine(st)
	const where = `WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`
	seen := map[string]bool{}
	var want []string
	for _, row := range resultRows(t, e, `SELECT ?a `+where) {
		if !seen[row] {
			seen[row] = true
			want = append(want, row)
		}
	}
	if got := resultRows(t, e, `SELECT DISTINCT ?a `+where); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("DISTINCT: got %d rows, dedup of the full result has %d", len(got), len(want))
	}
}

// TestVectorizedBudgetExhaustionMidBatch exhausts MaxBindings midway
// through a multi-batch join: the query must surface guard.ErrBudgetExceeded
// (the adaptive batch ramp keeps scan-ahead well under the overshoot a
// whole batch would cause).
func TestVectorizedBudgetExhaustionMidBatch(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	for _, q := range []string{
		`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		// The same join nested under OPTIONAL, once per outer row.
		`SELECT ?a ?c WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } }`,
	} {
		e := NewEngine(st)
		e.Limits = guard.Budget{MaxWork: 3000}
		if _, err := e.Query("", testPrologue+q); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("err = %v, want guard.ErrBudgetExceeded\n%s", err, q)
		}
	}
	// A tight budget must still let a first-rows query through: the
	// ramp bounds scan-ahead below the budget.
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 500}
	res, err := e.Query("", testPrologue+`SELECT ?a ?b WHERE { ?a rel:follows ?b } LIMIT 3`)
	if err != nil || res.Len() != 3 {
		t.Fatalf("LIMIT 3 under budget: rows=%v err=%v", res.Len(), err)
	}
}

// denseStore is a complete follows digraph over nodes vertices with
// every edge in copies named graphs: its triangles repeat copies³ times,
// so a triangle query spends nearly all its time emitting from the
// sorted intersection of its last two steps.
func denseStore(t *testing.T, nodes, copies int) *store.Store {
	t.Helper()
	follows := rdf.NewIRI("http://pg/r/follows")
	var quads []rdf.Quad
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			for g := 0; g < copies && a != b; g++ {
				quads = append(quads, rdf.NewQuad(rdf.NewIRI(fmt.Sprintf("http://pg/v%d", a)), follows,
					rdf.NewIRI(fmt.Sprintf("http://pg/v%d", b)), rdf.NewIRI(fmt.Sprintf("http://pg/g%d", g))))
			}
		}
	}
	st := store.New()
	if _, err := st.Load("net", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

const denseTriangles = `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`

// TestIntersectBudgetExhaustion exhausts MaxBindings inside a sorted
// intersection — the driving scan alone stays far under the budget —
// and the query must surface guard.ErrBudgetExceeded. Counting, the
// intersection adds each triangle once per input row, weighted 36; 5 190
// of its 5 220 input rows walk a side against the marks (DESIGN.md §20),
// so the query's work is 2.1 M units rather than 7.0 M: still ~10× the
// budget.
func TestIntersectBudgetExhaustion(t *testing.T) {
	st := denseStore(t, 30, 6) // 5 220 quads, 24 360 × 216 triangle rows
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 200_000}
	if got := fusedSteps(t, e, "", testPrologue+denseTriangles); got != "2 3" {
		t.Fatalf("fused steps %q, want \"2 3\"", got)
	}
	if _, err := e.Query("", testPrologue+denseTriangles); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
}

// TestIntersectCancellation cancels a triangle count while it is
// intersecting — the rows seeks return are slowed by an injected stall
// per 64, so the count would take many seconds — and checks it stops
// promptly with guard.ErrCanceled.
func TestIntersectCancellation(t *testing.T) {
	st := denseStore(t, 30, 6)
	fi := store.NewFaultInjector()
	fi.StallScans(64, 50*time.Microsecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start, before := time.Now(), fi.Scanned()
	go func() {
		_, err := e.QueryContext(ctx, "", testPrologue+denseTriangles)
		done <- err
	}()
	// The driving scan shows the injector each of the 5 220 quads at
	// most once, so past twice that many rows the seeks are running.
	for fi.Scanned()-before <= 2*5220 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the intersection did not start")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("err = %v, want guard.ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("query did not stop within 2s of cancellation")
	}
}

// TestVectorizedCancellationBetweenBatches cancels the context before
// execution: the batch executor's per-batch poll must notice and
// surface guard.ErrCanceled.
func TestVectorizedCancellationBetweenBatches(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewEngine(st).QueryContext(ctx, "", testPrologue+`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// TestVectorizedAsk: ASK stops at the first batch — found, not-found,
// and early stop under a tight budget.
func TestVectorizedAsk(t *testing.T) {
	st := egoNetStore(t, 300, 5)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 500}
	if ok, err := e.Ask("", testPrologue+`ASK { ?a rel:follows ?b }`); err != nil || !ok {
		t.Fatalf("Ask = %v, %v, want true", ok, err)
	}
	if ok, err := e.Ask("", testPrologue+`ASK { ?a key:name ?b }`); err != nil || ok {
		t.Fatalf("Ask = %v, %v, want false", ok, err)
	}
}

// Aggregates over an alternation path: a UNION feeding the columnar
// COUNT fold by an id key, the row fold by a two-variable term key, and
// (under OPTIONAL, whose batches mix matched and unmatched rows) the
// columnar fold by an id key with unbound keys.
var groupCapQueries = []string{
	`SELECT ?b (COUNT(*) AS ?n) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?b`,
	`SELECT ?a ?b (COUNT(?b) AS ?n) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?a ?b`,
	`SELECT ?c (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } } GROUP BY ?c`,
}

// TestColumnarGroupMaxRows: group creation counts against MaxRows in the
// columnar fold as in the row fold — a cap of exactly the group count
// passes with the unlimited answer, one less fails with
// guard.ErrBudgetExceeded.
func TestColumnarGroupMaxRows(t *testing.T) {
	st := egoNetStore(t, 400, 5)
	for _, q := range groupCapQueries {
		want := resultRows(t, NewEngine(st), q)
		e := NewEngine(st)
		e.Limits = guard.Budget{MaxRows: len(want)}
		if got := resultRows(t, e, q); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("MaxRows %d: %d rows differ from the unlimited %d\n%s", len(want), len(got), len(want), q)
		}
		e.Limits = guard.Budget{MaxRows: len(want) - 1}
		if _, err := e.Query("", testPrologue+q); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("MaxRows %d: err = %v, want guard.ErrBudgetExceeded\n%s", len(want)-1, err, q)
		}
	}
}

// TestBatchUnionBudget exhausts MaxBindings in a UNION's second
// branch — the first branch's scan alone fits the budget — under the
// columnar fold and under plain projection.
func TestBatchUnionBudget(t *testing.T) {
	st := egoNetStore(t, 800, 5) // ~4 000 rows per branch
	for _, q := range []string{
		groupCapQueries[0],
		`SELECT ?a ?b WHERE { ?a (rel:follows|^rel:follows) ?b }`,
	} {
		e := NewEngine(st)
		e.Limits = guard.Budget{MaxWork: 6000}
		if _, err := e.Query("", testPrologue+q); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("err = %v, want guard.ErrBudgetExceeded\n%s", err, q)
		}
	}
}

// TestBatchUnionCancellation cancels an EQ9-shaped query while its
// UNION scans the second branch — scans stall 1ms per 16 rows, so the
// query would run for about half a second — and checks that it stops
// promptly with guard.ErrCanceled.
func TestBatchUnionCancellation(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	fi := store.NewFaultInjector()
	fi.StallScans(16, time.Millisecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)
	const q = `SELECT ?deg (COUNT(*) AS ?cnt) WHERE { SELECT ?b (COUNT(*) AS ?deg) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?b } GROUP BY ?deg`
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start, before := time.Now(), fi.Scanned()
	go func() {
		_, err := e.QueryContext(ctx, "", testPrologue+q)
		done <- err
	}()
	for fi.Scanned()-before <= 4500 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the second branch did not start")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("err = %v, want guard.ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("query did not stop within 2s of cancellation")
	}
}
