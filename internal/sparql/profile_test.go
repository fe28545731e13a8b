package sparql

// Tests for the observability layer (DESIGN.md §11): per-operator
// profiles / EXPLAIN ANALYZE, the slow-query log, the read-path
// dictionary-pollution fix, the plan-cache rework and the LIMIT 0
// short-circuit.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
)

func TestQueryProfiledActuals(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	res, prof, err := e.QueryProfiledContext(t.Context(), "", testPrologue+
		`SELECT ?x ?n WHERE { ?x rel:follows ?y . ?x key:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if prof == nil {
		t.Fatal("profile is nil")
	}
	if prof.Rows != 1 {
		t.Errorf("profile rows = %d, want 1", prof.Rows)
	}
	if prof.WallNanos <= 0 {
		t.Errorf("profile wall = %d, want > 0", prof.WallNanos)
	}
	var bgp *ProfileNode
	var walk func(ns []*ProfileNode)
	walk = func(ns []*ProfileNode) {
		for _, n := range ns {
			if strings.HasPrefix(n.Label, "BGP") {
				bgp = n
			}
			walk(n.Children)
		}
	}
	walk(prof.Plan)
	if bgp == nil {
		t.Fatalf("no BGP node in profile:\n%s", prof.Render())
	}
	if bgp.RowsOut != 1 {
		t.Errorf("BGP rows out = %d, want 1", bgp.RowsOut)
	}
	if len(bgp.Children) != 2 {
		t.Fatalf("BGP children = %d, want 2 join steps", len(bgp.Children))
	}
	for i, step := range bgp.Children {
		if step.GuardTicks == 0 {
			t.Errorf("step %d: guard ticks = 0, want > 0", i)
		}
		if step.Index == "" {
			t.Errorf("step %d: no index recorded", i)
		}
	}
}

func TestExplainAnalyzeRendersActuals(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	_, prof, err := e.QueryProfiledContext(t.Context(), "", testPrologue+
		`SELECT ?n WHERE { ?x key:name ?n } ORDER BY ?n LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	txt := prof.Render()
	for _, want := range []string{"(actual:", "rows=1", "OrderBy", "Project", "wall="} {
		if !strings.Contains(txt, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, txt)
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	_, prof, err := e.QueryProfiledContext(t.Context(), "", testPrologue+`SELECT ?x WHERE { ?x key:age ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Plan) != len(prof.Plan) {
		t.Errorf("round-trip plan nodes = %d, want %d", len(back.Plan), len(prof.Plan))
	}
}

// TestDictStableUnderComputedValues is the regression test for the
// read-path dictionary-pollution bug: computed values (extended
// projection, BIND, VALUES, aggregate results) used to be interned
// into the store's shared dictionary, growing it on every read-only
// query. They now go through a per-query scratch overlay.
func TestDictStableUnderComputedValues(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	queries := []string{
		// Extended projection computes a fresh integer per row.
		`SELECT (?a + 1 AS ?b) WHERE { ?x key:age ?a }`,
		// BIND computes fresh strings.
		`SELECT ?ln WHERE { ?x key:name ?n BIND(CONCAT(?n, "-suffix") AS ?ln) }`,
		// VALUES injects inline terms the store has never seen.
		`SELECT ?v WHERE { VALUES ?v { "novel-a" "novel-b" 42 } }`,
		// Aggregates synthesize count/sum/avg literals.
		`SELECT (COUNT(?x) AS ?c) (AVG(?a) AS ?avg) WHERE { ?x key:age ?a }`,
		// GROUP BY with a computed key.
		`SELECT ?n (COUNT(?x) AS ?c) WHERE { ?x key:name ?n } GROUP BY ?n`,
	}
	before := st.Dict().Len()
	for _, q := range queries {
		if _, err := e.QueryContext(t.Context(), "", testPrologue+q); err != nil {
			t.Fatalf("query failed: %v\n%s", err, q)
		}
	}
	if after := st.Dict().Len(); after != before {
		t.Errorf("dictionary grew from %d to %d terms across read-only computed-value queries", before, after)
	}
}

// TestComputedValuesStillJoinable checks that the overlay keeps
// already-interned terms on their real IDs: a BIND that reproduces a
// stored lexical value must still join against stored data.
func TestComputedValuesStillJoinable(t *testing.T) {
	st := fig1Store(t)
	res := query(t, st, `SELECT ?x WHERE { BIND("Amy" AS ?n) ?x key:name ?n }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://pg/v1" {
		t.Fatalf("join through BIND value: %s", res)
	}
}

// TestLimitZero is the off-by-one regression test: LIMIT 0 must
// return an empty result without running the pipeline — in particular
// it must succeed even under a budget a single binding would trip.
func TestLimitZero(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 1}
	res, err := e.QueryContext(context.Background(), "",
		testPrologue+`SELECT ?x ?y WHERE { ?x rel:follows ?y . ?x key:name ?n } LIMIT 0`)
	if err != nil {
		t.Fatalf("LIMIT 0 errored: %v", err)
	}
	if res.Len() != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", res.Len())
	}
}

func TestLimitZeroProfiled(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	res, _, err := e.QueryProfiledContext(t.Context(), "", testPrologue+`SELECT ?x WHERE { ?x key:name ?n } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d", res.Len())
	}
}

// TestPlanCacheSingleflight: concurrent first-time executions of the
// same text must compile it exactly once.
func TestPlanCacheSingleflight(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	const workers = 16
	q := testPrologue + `SELECT ?x WHERE { ?x key:name ?n }`
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.QueryContext(t.Context(), "", q); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := e.PlanCacheStats()
	if stats.Misses != 1 {
		t.Errorf("plan cache misses = %d, want 1 (singleflight)", stats.Misses)
	}
	if stats.Hits != workers-1 {
		t.Errorf("plan cache hits = %d, want %d", stats.Hits, workers-1)
	}
	if stats.Entries != 1 {
		t.Errorf("plan cache entries = %d, want 1", stats.Entries)
	}
}

// TestPlanCacheEvictsOneEntry: at the limit the cache evicts a single
// entry per insertion instead of wiping wholesale.
func TestPlanCacheEvictsOneEntry(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	for i := 0; i < planCacheLimit+3; i++ {
		q := fmt.Sprintf("%sSELECT ?x WHERE { ?x key:name ?n } OFFSET %d", testPrologue, i)
		if _, err := e.QueryContext(t.Context(), "", q); err != nil {
			t.Fatal(err)
		}
	}
	stats := e.PlanCacheStats()
	if stats.Entries != planCacheLimit {
		t.Errorf("plan cache entries = %d, want %d (stay at limit)", stats.Entries, planCacheLimit)
	}
	if stats.Evictions != 3 {
		t.Errorf("plan cache evictions = %d, want 3 (one per overflow insertion)", stats.Evictions)
	}
	if stats.Misses != planCacheLimit+3 {
		t.Errorf("plan cache misses = %d, want %d", stats.Misses, planCacheLimit+3)
	}
}

func TestPlanCacheMissOnParseErrorNotCached(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	bad := `SELECT WHERE {` // malformed
	for i := 0; i < 2; i++ {
		if _, err := e.QueryContext(t.Context(), "", bad); err == nil {
			t.Fatal("malformed query did not error")
		}
	}
	if stats := e.PlanCacheStats(); stats.Entries != 0 {
		t.Errorf("failed compilation was cached: entries = %d", stats.Entries)
	}
}

// TestSlowQueryLog: with a zero threshold every query is logged as one
// JSON line carrying the per-operator profile.
func TestSlowQueryLog(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	var buf bytes.Buffer
	e.SlowQueryLog = &buf
	e.SlowQueryThreshold = 0 // log everything

	if _, err := e.QueryContext(t.Context(), "", testPrologue+`SELECT ?x WHERE { ?x key:name ?n }`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecContext(t.Context(), "", testPrologue+`ASK { ?x rel:follows ?y }`); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var recs []SlowQueryRecord
	for sc.Scan() {
		var rec SlowQueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("slow log line is not JSON: %v\n%s", err, sc.Text())
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("slow log records = %d, want 2", len(recs))
	}
	sel := recs[0]
	if sel.Form != "select" || sel.Rows != 2 {
		t.Errorf("select record = form %q rows %d", sel.Form, sel.Rows)
	}
	if sel.Profile == nil || len(sel.Profile.Plan) == 0 {
		t.Errorf("select record carries no profile")
	}
	if sel.DurationMS < 0 {
		t.Errorf("negative duration %v", sel.DurationMS)
	}
	if recs[1].Form != "ask" {
		t.Errorf("second record form = %q, want ask", recs[1].Form)
	}
	if _, err := time.Parse(time.RFC3339Nano, sel.Time); err != nil {
		t.Errorf("record time %q is not RFC3339: %v", sel.Time, err)
	}
}

// TestSlowQueryLogThreshold: fast queries stay out of the log when a
// high threshold is set.
func TestSlowQueryLogThreshold(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	var buf bytes.Buffer
	e.SlowQueryLog = &buf
	e.SlowQueryThreshold = time.Hour
	if _, err := e.QueryContext(t.Context(), "", testPrologue+`SELECT ?x WHERE { ?x key:name ?n }`); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fast query was logged: %s", buf.String())
	}
	if e.MetricsSnapshot().SlowQueries != 0 {
		t.Errorf("slow query counter incremented for fast query")
	}
}

func TestMetricsSnapshotCounts(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	if _, err := e.QueryContext(t.Context(), "", testPrologue+`SELECT ?x WHERE { ?x key:name ?n }`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryContext(t.Context(), "", `SELECT WHERE {`); err == nil {
		t.Fatal("malformed query did not error")
	}
	if _, err := e.ExecContext(t.Context(), "", testPrologue+`ASK { ?x rel:follows ?y }`); err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	byForm := map[string]FormMetricsSnapshot{}
	for _, f := range snap.Forms {
		byForm[f.Form] = f
	}
	if f := byForm["select"]; f.Queries != 2 || f.Errors != 1 {
		t.Errorf("select metrics = %d queries %d errors, want 2/1", f.Queries, f.Errors)
	}
	if f := byForm["ask"]; f.Queries != 1 || f.Errors != 0 {
		t.Errorf("ask metrics = %d queries %d errors, want 1/0", f.Queries, f.Errors)
	}
	// Histogram buckets must be cumulative and end at the total count.
	f := byForm["select"]
	if len(f.Buckets) != len(latencyBucketsSeconds)+1 {
		t.Fatalf("bucket count = %d", len(f.Buckets))
	}
	last := f.Buckets[len(f.Buckets)-1]
	if last.LE != -1 || last.Count != f.Queries {
		t.Errorf("+Inf bucket = {%v %d}, want {-1 %d}", last.LE, last.Count, f.Queries)
	}
	for i := 1; i < len(f.Buckets); i++ {
		if f.Buckets[i].Count < f.Buckets[i-1].Count {
			t.Errorf("buckets not cumulative at %d: %v", i, f.Buckets)
		}
	}
}

// TestProfilingOffHasNoProfile: plain QueryContext with no slow log
// must not allocate a profile (the cheap-when-off promise).
func TestProfilingOffHasNoProfile(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	ans, prof, err := e.exec(t.Context(), "",
		testPrologue+`SELECT ?x WHERE { ?x key:name ?n }`, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Results.Len() != 2 {
		t.Fatalf("rows = %d", ans.Results.Len())
	}
	if prof != nil {
		t.Fatal("plain query returned a profile")
	}
}

// TestProfileNestedBGPInvocations: an OPTIONAL's inner BGP is built once
// per query and rerun per outer row. EXPLAIN ANALYZE must still count
// one invocation per outer row, and the per-run counters (rows in and
// out and guard ticks per join step) must equal the golden parent run's,
// which built the BGP afresh for every row — reuse may not double-count.
func TestProfileNestedBGPInvocations(t *testing.T) {
	st := egoNetStore(t, 900, 5)
	q := nestedShapeQueries[0] // ?a rel:follows ?b OPTIONAL { 2-pattern BGP }
	golden, err := os.ReadFile(executorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	head := "\n== profile " + q + "\n"
	i := strings.Index(string(golden), head)
	if i < 0 {
		t.Fatalf("no profile of %s in %s", q, executorGoldenPath)
	}
	want, _, _ := strings.Cut(string(golden)[i+len(head):], "\n\n")
	if got := profileCounters(t, st, q); strings.TrimSuffix(got, "\n") != strings.TrimSuffix(want, "\n") {
		t.Errorf("profile counters differ from the golden parent run:\n--- golden ---\n%s\n--- got ---\n%s", want, got)
	}
	e := NewEngine(st)
	_, prof, err := e.QueryProfiledContext(t.Context(), "", testPrologue+q)
	if err != nil {
		t.Fatal(err)
	}
	opt := prof.Plan[1]
	if opt.Label != "Optional" || len(opt.Children) != 1 {
		t.Fatalf("unexpected plan:\n%s", prof.Render())
	}
	inner := opt.Children[0]
	if outer := opt.RowsIn; outer < 1000 || inner.Invocations != outer || inner.RowsIn != outer || inner.Children[0].RowsIn != outer {
		t.Errorf("%d outer rows, inner BGP invocations=%d rows_in=%d first step rows_in=%d; want all equal",
			outer, inner.Invocations, inner.RowsIn, inner.Children[0].RowsIn)
	}
	if txt := prof.Render(); !strings.Contains(txt, fmt.Sprintf("loops=%d", opt.RowsIn)) {
		t.Errorf("EXPLAIN ANALYZE does not show loops=%d:\n%s", opt.RowsIn, txt)
	}
}
