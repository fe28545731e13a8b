package sparql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// vecEngine returns a serial engine.
func vecEngine(st *store.Store) *Engine {
	e := NewEngine(st)
	e.Parallelism = 1
	return e
}

// vectorDiffQueries covers the operator shapes the batch tail handles
// (BGP + trailing filters, grouping, LIMIT/OFFSET, DISTINCT, ORDER BY)
// and shapes whose BGPs feed row operators (UNION, OPTIONAL, property
// paths, VALUES feeding a BGP). TestExecutorGolden pins their results.
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
	e := vecEngine(st)
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
// answer must be rows[o:o+k] of the unlimited query, serial and
// parallel.
func TestVectorizedLimitOffsetBatchBoundary(t *testing.T) {
	st := egoNetStore(t, 1200, 4) // 4800 result rows for the single pattern
	for _, parallelism := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = parallelism
		const q = `SELECT ?a ?b WHERE { ?a rel:follows ?b }`
		all := resultRows(t, e, q)
		for _, limit := range []int{1, vecRampStart, vecRampStart + 1, batchRows - 1, batchRows, batchRows + 1, 2*batchRows + 5} {
			for _, offset := range []int{0, 1, batchRows - 1, batchRows, batchRows + 1} {
				got := resultRows(t, e, fmt.Sprintf(`%s OFFSET %d LIMIT %d`, q, offset, limit))
				if want := sliceRows(all, offset, limit); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("parallelism %d, limit=%d offset=%d: got %d rows, not rows[%d:%d] of the unlimited query",
						parallelism, limit, offset, len(got), offset, offset+limit)
				}
			}
		}
	}
}

// TestVectorizedDistinctAcrossBatches: duplicates of the same ?a are
// spread thousands of rows apart (different batches); DISTINCT must
// still equal the full result deduplicated, first occurrences kept.
func TestVectorizedDistinctAcrossBatches(t *testing.T) {
	st := egoNetStore(t, 1500, 4)
	e := vecEngine(st)
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
// through a multi-batch join: the query must surface ErrBudgetExceeded
// (the adaptive batch ramp keeps scan-ahead well under the overshoot a
// whole batch would cause).
func TestVectorizedBudgetExhaustionMidBatch(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	for _, q := range []string{
		`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		// The same join nested under OPTIONAL, once per outer row.
		`SELECT ?a ?c WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } }`,
	} {
		e := vecEngine(st)
		e.Limits = Budget{MaxBindings: 3000}
		if _, err := e.Query("", testPrologue+q); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded\n%s", err, q)
		}
	}
	// A tight budget must still let a first-rows query through: the
	// ramp bounds scan-ahead below the budget.
	e := vecEngine(st)
	e.Limits = Budget{MaxBindings: 500}
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
// serial and parallel: the query must surface ErrBudgetExceeded.
func TestIntersectBudgetExhaustion(t *testing.T) {
	st := denseStore(t, 30, 6) // 5 220 quads, 24 360 × 216 triangle rows
	for _, parallelism := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = parallelism
		e.Limits = Budget{MaxBindings: 200_000}
		if got := fusedSteps(t, e, "", testPrologue+denseTriangles); got != "2 3" {
			t.Fatalf("fused steps %q, want \"2 3\"", got)
		}
		if _, err := e.Query("", testPrologue+denseTriangles); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("parallelism %d: err = %v, want ErrBudgetExceeded", parallelism, err)
		}
		if w := e.ParallelStats().ActiveWorkers; w != 0 {
			t.Errorf("parallelism %d: leaked workers: %d", parallelism, w)
		}
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}

// TestIntersectCancellation cancels a triangle count while it is
// intersecting — the rows seeks return are slowed by an injected stall
// per 64, so the count would take many seconds — and checks it stops
// promptly with ErrCanceled, serial and parallel.
func TestIntersectCancellation(t *testing.T) {
	st := denseStore(t, 30, 6)
	fi := store.NewFaultInjector()
	fi.StallScans(64, 50*time.Microsecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)
	for _, parallelism := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = parallelism
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
				t.Fatalf("parallelism %d: the intersection did not start", parallelism)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("parallelism %d: err = %v, want ErrCanceled", parallelism, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("parallelism %d: query did not stop within 2s of cancellation", parallelism)
		}
		if w := e.ParallelStats().ActiveWorkers; w != 0 {
			t.Errorf("parallelism %d: leaked workers: %d", parallelism, w)
		}
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}

// TestVectorizedCancellationBetweenBatches cancels the context before
// execution: the batch executor's per-batch poll must notice and
// surface ErrCanceled without leaking workers or cursors.
func TestVectorizedCancellationBetweenBatches(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	for _, parallelism := range []int{1, 8} {
		e := NewEngine(st)
		e.Parallelism = parallelism
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := e.QueryContext(ctx, "", testPrologue+`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("parallelism=%d: err = %v, want ErrCanceled", parallelism, err)
		}
		if w := e.ParallelStats().ActiveWorkers; w != 0 {
			t.Errorf("parallelism=%d: leaked workers: %d", parallelism, w)
		}
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}

// TestOrderInsensitive pins the merge-skip rule (DESIGN.md §15): only a
// single implicit group of order-insensitive folds may skip the
// order-preserving merge.
func TestOrderInsensitive(t *testing.T) {
	e := NewEngine(store.New())
	cases := []struct {
		q    string
		want bool
	}{
		{`SELECT (COUNT(*) AS ?n) WHERE { ?a ?p ?b }`, true},
		{`SELECT (COUNT(DISTINCT ?a) AS ?n) WHERE { ?a ?p ?b }`, true},
		{`SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?a ?p ?b }`, true},
		{`SELECT (SUM(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT (AVG(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT (SAMPLE(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT (GROUP_CONCAT(?a) AS ?s) WHERE { ?a ?p ?b }`, false},
		{`SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ?p ?b } GROUP BY ?a`, false},
		{`SELECT ?a WHERE { ?a ?p ?b }`, false},
		{`SELECT ?a WHERE { ?a ?p ?b } ORDER BY ?a`, false},
	}
	for _, c := range cases {
		cp, err := e.compileSelectText(testPrologue+c.q, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got := orderInsensitive(cp); got != c.want {
			t.Errorf("orderInsensitive(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestVectorizedUnorderedParallelCount: the unordered fan-in (merge
// skipped) must still produce the exact aggregate of the ordered and
// serial paths — same count, same min/max.
func TestVectorizedUnorderedParallelCount(t *testing.T) {
	st := egoNetStore(t, 900, 5)
	serial := vecEngine(st)
	par := NewEngine(st)
	par.Parallelism = 8
	par.HashJoinThreshold = 16
	for _, q := range []string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		`SELECT (MIN(?c) AS ?lo) (MAX(?c) AS ?hi) (COUNT(?c) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
	} {
		want, err := serial.Query("", testPrologue+q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Query("", testPrologue+q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("unordered parallel aggregate differs for:\n%s\nserial:\n%s\nparallel:\n%s",
				q, want.String(), got.String())
		}
	}
	if w := par.ParallelStats().ActiveWorkers; w != 0 {
		t.Errorf("leaked workers: %d", w)
	}
}

// TestVectorizedAsk: ASK through the batch tail — found, not-found, and
// early stop under a tight budget.
func TestVectorizedAsk(t *testing.T) {
	st := egoNetStore(t, 300, 5)
	e := NewEngine(st)
	e.Limits = Budget{MaxBindings: 500}
	if ok, err := e.Ask("", testPrologue+`ASK { ?a rel:follows ?b }`); err != nil || !ok {
		t.Fatalf("Ask = %v, %v, want true", ok, err)
	}
	if ok, err := e.Ask("", testPrologue+`ASK { ?a key:name ?b }`); err != nil || ok {
		t.Fatalf("Ask = %v, %v, want false", ok, err)
	}
}

// Aggregates over an alternation path: a batch UNION feeding the
// columnar COUNT fold by an id key, the row fold by a two-variable
// term key, and (under OPTIONAL) the row path's id key.
var groupCapQueries = []string{
	`SELECT ?b (COUNT(*) AS ?n) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?b`,
	`SELECT ?a ?b (COUNT(?b) AS ?n) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?a ?b`,
	`SELECT ?c (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c } } GROUP BY ?c`,
}

// TestColumnarGroupMaxRows: group creation counts against MaxRows in the
// columnar fold as in the row path — a cap of exactly the group count
// passes with the unlimited answer, one less fails with
// ErrBudgetExceeded, serial and parallel.
func TestColumnarGroupMaxRows(t *testing.T) {
	st := egoNetStore(t, 400, 5)
	for _, q := range groupCapQueries {
		want := resultRows(t, vecEngine(st), q)
		for _, parallelism := range []int{1, 4} {
			e := NewEngine(st)
			e.Parallelism = parallelism
			e.Limits = Budget{MaxRows: len(want)}
			if got := resultRows(t, e, q); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("parallelism %d, MaxRows %d: %d rows differ from the unlimited %d\n%s", parallelism, len(want), len(got), len(want), q)
			}
			e.Limits = Budget{MaxRows: len(want) - 1}
			if _, err := e.Query("", testPrologue+q); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("parallelism %d, MaxRows %d: err = %v, want ErrBudgetExceeded\n%s", parallelism, len(want)-1, err, q)
			}
			if w := e.ParallelStats().ActiveWorkers; w != 0 {
				t.Errorf("parallelism %d: leaked workers: %d", parallelism, w)
			}
		}
	}
}

// TestBatchUnionBudget exhausts MaxBindings in a batch UNION's second
// branch — the first branch's scan alone fits the budget — under the
// columnar fold and under plain projection, serial and parallel.
func TestBatchUnionBudget(t *testing.T) {
	st := egoNetStore(t, 800, 5) // ~4 000 rows per branch
	for _, q := range []string{
		groupCapQueries[0],
		`SELECT ?a ?b WHERE { ?a (rel:follows|^rel:follows) ?b }`,
	} {
		for _, parallelism := range []int{1, 4} {
			e := NewEngine(st)
			e.Parallelism = parallelism
			e.Limits = Budget{MaxBindings: 6000}
			if _, err := e.Query("", testPrologue+q); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("parallelism %d: err = %v, want ErrBudgetExceeded\n%s", parallelism, err, q)
			}
			if w := e.ParallelStats().ActiveWorkers; w != 0 {
				t.Errorf("parallelism %d: leaked workers: %d", parallelism, w)
			}
		}
	}
}

// TestBatchUnionCancellation cancels an EQ9-shaped query while its batch
// UNION scans the second branch — scans stall 1ms per 16 rows, so the
// query would run for about half a second — and checks that it stops
// promptly with ErrCanceled, serial and parallel, leaking no workers
// or cursors.
func TestBatchUnionCancellation(t *testing.T) {
	st := egoNetStore(t, 800, 5)
	fi := store.NewFaultInjector()
	fi.StallScans(16, time.Millisecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)
	const q = `SELECT ?deg (COUNT(*) AS ?cnt) WHERE { SELECT ?b (COUNT(*) AS ?deg) WHERE { ?a (rel:follows|^rel:follows) ?b } GROUP BY ?b } GROUP BY ?deg`
	for _, parallelism := range []int{1, 4} {
		e := NewEngine(st)
		e.Parallelism = parallelism
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		start, before := time.Now(), fi.Scanned()
		go func() {
			_, err := e.QueryContext(ctx, "", testPrologue+q)
			done <- err
		}()
		for fi.Scanned()-before <= 4500 {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("parallelism %d: the second branch did not start", parallelism)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("parallelism %d: err = %v, want ErrCanceled", parallelism, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("parallelism %d: query did not stop within 2s of cancellation", parallelism)
		}
		if w := e.ParallelStats().ActiveWorkers; w != 0 {
			t.Errorf("parallelism %d: leaked workers: %d", parallelism, w)
		}
	}
	if g := st.OpenCursors(); g != 0 {
		t.Errorf("leaked cursors: %d", g)
	}
}
