package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// egoNetStore builds a dense random follows-graph — the EQ-style
// traversal substrate — with nodes*degree edges.
func egoNetStore(t testing.TB, nodes, degree int) *store.Store {
	t.Helper()
	st := store.New()
	follows := rdf.NewIRI("http://pg/r/follows")
	rng := rand.New(rand.NewSource(42))
	quads := make([]rdf.Quad, 0, nodes*degree)
	for i := 0; i < nodes; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i))
		for d := 0; d < degree; d++ {
			o := rdf.NewIRI(fmt.Sprintf("http://pg/v%d", rng.Intn(nodes)))
			quads = append(quads, rdf.Quad{S: s, P: follows, O: o})
		}
	}
	if _, err := st.Load("net", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

// hubStore is a random follows graph of nodes vertices with degree
// out-edges each, plus a hub every vertex follows and that follows every
// vertex. The hub's IRI is interned last, so its edge into a vertex is
// the last of that vertex's in-edges in the driving scan's order: the
// row that checks the hub's in-edges (nodes of them) against the
// vertex's few out-edges comes after a row with the same out-edges.
// With hubFirst it is interned first instead: the driving scan starts
// with the hub's in-edges, each of whose rows seeks the hub's out-edges.
func hubStore(t testing.TB, nodes, degree int, hubFirst bool) *store.Store {
	t.Helper()
	st := store.New()
	follows := rdf.NewIRI("http://pg/r/follows")
	hub := rdf.NewIRI("http://pg/hub")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	rng := rand.New(rand.NewSource(43))
	quads := make([]rdf.Quad, 0, nodes*(degree+2))
	hubEdges := func() {
		for i := 0; i < nodes; i++ {
			in, out := rdf.Quad{S: node(i), P: follows, O: hub}, rdf.Quad{S: hub, P: follows, O: node(i)}
			if hubFirst {
				in, out = out, in
			}
			quads = append(quads, in, out)
		}
	}
	if hubFirst {
		hubEdges()
	}
	for i := 0; i < nodes; i++ {
		for d := 0; d < degree; d++ {
			quads = append(quads, rdf.Quad{S: node(i), P: follows, O: node(rng.Intn(nodes))})
		}
	}
	if !hubFirst {
		hubEdges()
	}
	if _, err := st.Load("net", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

// crossJoin is a deliberately unbounded product over disjoint variables.
const crossJoin = `SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f }`

// TestDeadlineStopsCrossJoin is the acceptance scenario: an unbounded
// cross join with a 100ms deadline must return guard.ErrTimeout well under 1s.
func TestDeadlineStopsCrossJoin(t *testing.T) {
	st := egoNetStore(t, 500, 8) // 4000 quads -> 4000^3 product rows
	e := NewEngine(st)
	e.Limits = guard.Budget{Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err := e.QueryContext(context.Background(), "", crossJoin)
	elapsed := time.Since(start)
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("err = %v, want guard.ErrTimeout", err)
	}
	var qe *guard.Error
	if !errors.As(err, &qe) {
		t.Fatalf("err %T is not *guard.Error", err)
	}
	if elapsed > time.Second {
		t.Fatalf("query took %v, want well under 1s", elapsed)
	}
}

// TestCancellationMidCrossJoin cancels a running nested-loop cross join
// (one full scan per outer row) and checks it stops promptly with
// guard.ErrCanceled.
func TestCancellationMidCrossJoin(t *testing.T) {
	st := egoNetStore(t, 2000, 4) // 8000 quads per scan
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	fi := store.NewFaultInjector()
	// Slow every scanned row slightly so the cross join is guaranteed to
	// outlive the cancellation no matter how fast the machine is.
	fi.StallScans(64, 50*time.Microsecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := e.QueryContext(ctx, "", `SELECT * WHERE { ?a ?p ?b . ?c ?q ?d }`)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the join get going
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("err = %v, want guard.ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not stop after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestDeadlineInsidePropertyPath expires a deadline during a multi-hop
// property-path BFS (a 5-hop EQ-style traversal over the ego-net), with
// fault-injected scan latency making the traversal deterministically
// slower than the deadline.
func TestDeadlineInsidePropertyPath(t *testing.T) {
	st := egoNetStore(t, 1500, 6)
	fi := store.NewFaultInjector()
	fi.StallScans(32, 100*time.Microsecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)

	e := NewEngine(st)
	e.Limits = guard.Budget{Timeout: 30 * time.Millisecond}
	q := `SELECT (COUNT(?x) AS ?n) WHERE {
		<http://pg/v0> <http://pg/r/follows>/<http://pg/r/follows>/<http://pg/r/follows>/<http://pg/r/follows>/<http://pg/r/follows>* ?x }`
	start := time.Now()
	_, err := e.QueryContext(context.Background(), "", q)
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("err = %v, want guard.ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("path query took %v after a 30ms deadline", elapsed)
	}
}

// TestMaxBindingsBudget stops the cross join on intermediate bindings
// alone — fully deterministic, no clock involved.
func TestMaxBindingsBudget(t *testing.T) {
	st := egoNetStore(t, 200, 5)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 10_000}
	_, err := e.QueryContext(t.Context(), "", crossJoin)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
}

// TestMaxRowsBudget bounds materialized solution rows.
func TestMaxRowsBudget(t *testing.T) {
	st := egoNetStore(t, 100, 4)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxRows: 50}
	_, err := e.QueryContext(t.Context(), "", `SELECT ?a ?b WHERE { ?a ?p ?b }`)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
	// Under the cap, the query succeeds unchanged.
	e.Limits = guard.Budget{MaxRows: 50}
	res, err := e.QueryContext(t.Context(), "", `SELECT ?a ?b WHERE { ?a ?p ?b } LIMIT 10`)
	if err != nil || res.Len() != 10 {
		t.Fatalf("LIMIT 10 under budget: res=%v err=%v", res, err)
	}
}

// TestMaxRowsBudgetGroups caps the number of aggregation groups.
func TestMaxRowsBudgetGroups(t *testing.T) {
	st := egoNetStore(t, 300, 3)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxRows: 20}
	_, err := e.QueryContext(t.Context(), "", `SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ?p ?b } GROUP BY ?a`)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("grouped err = %v, want guard.ErrBudgetExceeded", err)
	}
}

// TestBudgetAppliesToAskConstructDescribeUpdate exercises the guard on
// every query form, not just SELECT.
func TestBudgetAppliesToAskConstructDescribeUpdate(t *testing.T) {
	st := egoNetStore(t, 300, 5)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 500}

	if _, err := e.ExecContext(t.Context(), "", `CONSTRUCT { ?a <http://x> ?d } WHERE { ?a ?p ?b . ?c ?q ?d }`); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Errorf("Construct err = %v, want guard.ErrBudgetExceeded", err)
	}
	if _, err := e.ExecContext(t.Context(), "", `DESCRIBE ?a WHERE { ?a ?p ?b . ?c ?q ?d }`); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Errorf("Describe err = %v, want guard.ErrBudgetExceeded", err)
	}
	if _, err := e.UpdateContext(t.Context(), "net", `DELETE { ?a <http://x> ?d } INSERT { ?a <http://y> ?d } WHERE { ?a ?p ?b . ?c ?q ?d }`); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Errorf("Update err = %v, want guard.ErrBudgetExceeded", err)
	}
	// ASK finds its first row long before the budget and succeeds.
	if ans, err := e.ExecContext(t.Context(), "", `ASK { ?a ?p ?b }`); err != nil || !ans.Boolean {
		t.Errorf("Ask = %v, %v", ans.Boolean, err)
	}
}

// TestCanceledContextFailsFast: an already-canceled context aborts the
// query on its first guard poll.
func TestCanceledContextFailsFast(t *testing.T) {
	st := egoNetStore(t, 500, 5)
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, "", crossJoin)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// TestBudgetTripMidNestedLoopJoin trips MaxWork in the middle of a
// two-hop index nested-loop join: the error latches and the query
// unwinds.
func TestBudgetTripMidNestedLoopJoin(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 3000}
	q := testPrologue + `SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`
	if _, err := e.QueryContext(context.Background(), "", q); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
}

// TestCanceledTriangleCount cancels the context before a triangle count
// runs: the guard stops it.
func TestCanceledTriangleCount(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := testPrologue + `SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`
	if _, err := e.QueryContext(ctx, "", q); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// TestEarlyStopByLimit stops consuming mid-scan (LIMIT): the abandoned
// scan still yields exactly the limit's rows.
func TestEarlyStopByLimit(t *testing.T) {
	st := socialStore(t)
	res, err := NewEngine(st).QueryContext(t.Context(), "", testPrologue+`SELECT ?a ?b WHERE { ?a rel:follows ?b } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
}

// goroutineID returns the id runtime.Stack prints for the calling
// goroutine ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// callerCtx is a never-canceled context that counts, per goroutine, the
// calls to its Done method. The guard calls Done once when a query
// starts and once per poll boundary its event counter crosses.
type callerCtx struct {
	context.Context
	done  chan struct{}
	mu    sync.Mutex
	calls map[string]int
}

func (c *callerCtx) Done() <-chan struct{} {
	id := goroutineID()
	c.mu.Lock()
	c.calls[id]++
	c.mu.Unlock()
	return c.done
}

// TestQueriesRunOnCallingGoroutine: a query runs on the goroutine that
// called it. Every guard poll of socialShapes — a two-hop join, a triangle
// count, a path BFS, ORDER BY and GROUP BY — comes from the test's own
// goroutine, and each shape polls at least once after it starts.
func TestQueriesRunOnCallingGoroutine(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	me := goroutineID()
	for i, q := range socialShapes {
		ctx := &callerCtx{Context: context.Background(), done: make(chan struct{}), calls: map[string]int{}}
		if _, err := e.QueryContext(ctx, "", testPrologue+q); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if n := ctx.calls[me]; n < 2 {
			t.Errorf("shape %d: %d Done calls on the calling goroutine, want the start's and at least one poll", i, n)
		}
		for id, n := range ctx.calls {
			if id != me {
				t.Errorf("shape %d: %d Done calls on goroutine %s, not on the caller's %s", i, n, id, me)
			}
		}
	}
}

// TestPanicRecovery: an injected scan fault panics inside the executor;
// the engine must surface a structured *guard.Error with kind guard.ErrInternal
// instead of crashing, and must stay usable afterwards.
func TestPanicRecovery(t *testing.T) {
	st := egoNetStore(t, 100, 4)
	e := NewEngine(st)
	fi := store.NewFaultInjector()
	fi.FailScansAfter(50)
	st.SetFaultInjector(fi)
	_, err := e.QueryContext(t.Context(), "", `SELECT ?a WHERE { ?a ?p ?b }`)
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("err = %v, want guard.ErrInternal", err)
	}
	var qe *guard.Error
	if !errors.As(err, &qe) || qe.Stack == "" {
		t.Fatalf("expected *guard.Error with a stack, got %#v", err)
	}
	// Clearing the fault restores normal service.
	st.SetFaultInjector(nil)
	if _, err := e.QueryContext(t.Context(), "", `SELECT ?a WHERE { ?a ?p ?b } LIMIT 1`); err != nil {
		t.Fatalf("engine unusable after recovered panic: %v", err)
	}
}

// TestUpdateContextCancel cancels a bulk INSERT DATA mid-request.
func TestUpdateContextCancel(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb []byte
	sb = append(sb, "INSERT DATA { "...)
	for i := 0; i < 3000; i++ {
		sb = append(sb, fmt.Sprintf("<http://s%d> <http://p> <http://o> . ", i)...)
	}
	sb = append(sb, '}')
	_, err := e.UpdateContext(ctx, "m", string(sb))
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if n := st.Len(); n >= 3000 {
		t.Fatalf("insert was not interrupted: %d quads landed", n)
	}
}

// TestMaxPatternsRejected: the compiler bounds pattern-count blowup.
func TestMaxPatternsRejected(t *testing.T) {
	var sb []byte
	sb = append(sb, "SELECT * WHERE { "...)
	for i := 0; i <= maxPatterns; i++ {
		sb = append(sb, "?a <http://p> ?a . "...)
	}
	sb = append(sb, '}')
	st := store.New()
	if _, err := NewEngine(st).QueryContext(t.Context(), "", string(sb)); err == nil {
		t.Fatal("query with too many patterns should be rejected")
	}
}

// TestGuardZeroOverheadPath: with no limits and a Background context the
// engine must not allocate a guard (nil fast path).
func TestGuardZeroOverheadPath(t *testing.T) {
	if g, _, _ := guard.Start(context.Background(), guard.Budget{}); g != nil {
		t.Fatal("expected nil guard for Background ctx and zero budget")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g, _, _ := guard.Start(ctx, guard.Budget{}); g == nil {
		t.Fatal("expected live guard for cancelable ctx")
	}
}

// BenchmarkGuardOverhead compares a 2-hop join with and without an
// active guard, documenting the cost of per-row ticking.
func BenchmarkGuardOverhead(b *testing.B) {
	st := egoNetStore(b, 1000, 8)
	q := `SELECT (COUNT(?c) AS ?n) WHERE { <http://pg/v0> <http://pg/r/follows> ?b . ?b <http://pg/r/follows> ?c }`
	b.Run("unguarded", func(b *testing.B) {
		e := NewEngine(st)
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryContext(b.Context(), "", q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("guarded", func(b *testing.B) {
		e := NewEngine(st)
		e.Limits = guard.Budget{Timeout: time.Hour, MaxWork: 1 << 40}
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryContext(b.Context(), "", q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMaxVarsRejectedByEveryForm: a WHERE pattern over more variables
// than a varset holds is rejected by every query form and by both
// update forms that evaluate one, before anything runs or changes.
func TestMaxVarsRejectedByEveryForm(t *testing.T) {
	var where strings.Builder
	for i := 0; i <= maxVars; i++ {
		fmt.Fprintf(&where, "?s%d <http://p> ?o . ", i)
	}
	pattern := "{ " + where.String() + "}"
	st := store.New()
	if _, err := st.Load("m", []rdf.Quad{{S: rdf.NewIRI("http://s"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://o")}}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	for _, q := range []string{
		"SELECT * WHERE " + pattern,
		"ASK " + pattern,
		"CONSTRUCT { ?o <http://p> ?o } WHERE " + pattern,
		"DESCRIBE ?o WHERE " + pattern,
	} {
		if _, err := e.ExecContext(context.Background(), "m", q); err == nil || !strings.Contains(err.Error(), "variables") {
			t.Errorf("%.30s…: err = %v, want the variable cap", q, err)
		}
	}
	for _, u := range []string{
		"DELETE WHERE " + pattern,
		"DELETE { ?o <http://p> ?o } WHERE " + pattern,
	} {
		if _, err := e.UpdateContext(t.Context(), "m", u); err == nil || !strings.Contains(err.Error(), "variables") {
			t.Errorf("%.30s…: err = %v, want the variable cap", u, err)
		}
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d quads, want 1", st.Len())
	}
}
