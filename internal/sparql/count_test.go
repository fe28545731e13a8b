package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// enumerating wraps a count query's WHERE group in a SELECT * sub-select.
// The sub-select materializes every row the group matches and the outer
// COUNT counts them, so it answers what counting must answer by
// enumerating.
func enumerating(q string) string {
	i := strings.Index(q, "WHERE {") + len("WHERE {")
	j := strings.LastIndex(q, "}")
	return q[:i] + " { SELECT * WHERE {" + q[i:j] + "} } " + q[j:]
}

// countCollapses is how many steps of each countShapeQueries plan drop a
// column (EXPLAIN's collapse=), and -1 where the BGP must run unweighted:
// EQ11a–e collapse from their third hop on, EQ12 and the unanchored 2-hop
// only before their last step, the VALUES shape — planned for an
// unbound ?v — after its first two, the GROUP BY ?a shape only once ?b
// is dead, the FILTER shape only before ?b's filter runs, the 4-cycle
// only after its first step.
var countCollapses = []int{0, 0, 1, 2, 3, 0, 1, 2, 2, 1, 1, 1, -1, -1}

// countStore builds the counting differential's dataset: 2 000 random
// follows edges over 1 000 nodes in model m1, each in its own named
// graph, every fourth doubled in a second graph and every fifth also in
// the default graph, so a path's rows repeat per combination of
// parallel edges; a 6-clique of follows edges in two graphs each (its
// triangles repeat eight times); and model m2 with 600 more edges.
func countStore(t *testing.T) (m1, m2 []rdf.Quad) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	graph := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/e%d", i)) }
	for i := 0; i < 2000; i++ {
		a, b := node(rng.Intn(1000)), node(rng.Intn(1000))
		m1 = append(m1, rdf.NewQuad(a, follows, b, graph(i)))
		if i%4 == 0 {
			m1 = append(m1, rdf.NewQuad(a, follows, b, graph(10000+i)))
		}
		if i%5 == 0 {
			m1 = append(m1, rdf.Quad{S: a, P: follows, O: b})
		}
	}
	for a := 1000; a < 1006; a++ {
		for b := 1000; b < 1006; b++ {
			if a != b {
				m1 = append(m1, rdf.NewQuad(node(a), follows, node(b), graph(20000)),
					rdf.NewQuad(node(a), follows, node(b), graph(20001)))
			}
		}
	}
	for i := 0; i < 600; i++ {
		m2 = append(m2, rdf.Quad{S: node(rng.Intn(1000)), P: follows, O: node(rng.Intn(1000))})
	}
	return newRefEval(t, m1).quads, newRefEval(t, m2).quads
}

// TestCountingMatchesEnumerating is the counting differential: every
// countShapeQueries shape must answer exactly what its enumerating form
// answers, on countStore freshly loaded, with delta rows and tombstones
// in the follows ranges, and compacted; over all models and over m1.
// The weighted shapes must plan weighted with the collapses
// countCollapses names, the others unweighted.
func TestCountingMatchesEnumerating(t *testing.T) {
	m1, m2 := countStore(t)
	// Every 6th m1 quad is held out of the load and inserted later;
	// every 7th loaded one is deleted.
	var base, held, deleted []rdf.Quad
	for i, q := range m1 {
		switch {
		case i%6 == 2:
			held = append(held, q)
		case i%7 == 3:
			deleted = append(deleted, q)
			base = append(base, q)
		default:
			base = append(base, q)
		}
	}
	st, err := store.NewWithIndexes(serveIndexes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("m1", base); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("m2", m2); err != nil {
		t.Fatal(err)
	}
	states := []struct {
		name   string
		mutate func()
	}{
		{"loaded", func() {}},
		{"delta", func() {
			for _, q := range held {
				mustMutate(t, func(_ string, q rdf.Quad) (bool, error) { return st.Insert("m1", q) }, q)
			}
			for _, q := range deleted {
				mustMutate(t, func(_ string, q rdf.Quad) (bool, error) { return st.Delete("m1", q) }, q)
			}
			if ws := st.WriteStats(); ws.DeltaRows == 0 || ws.Tombstones == 0 {
				t.Fatalf("delta state has %d delta rows and %d tombstones", ws.DeltaRows, ws.Tombstones)
			}
		}},
		{"compacted", st.Compact},
	}
	shapes := countShapeQueries()
	if len(shapes) != len(countCollapses) {
		t.Fatalf("%d shapes, %d expected collapse counts", len(shapes), len(countCollapses))
	}
	for _, state := range states {
		state.mutate()
		for _, model := range []string{"", "m1"} {
			e := NewEngine(st)
			e.HashJoinThreshold = 16
			for i, q := range shapes {
				q = testPrologue + q
				label := fmt.Sprintf("%s/%q/shape %d", state.name, model, i)
				plan, err := e.Explain(model, q)
				if err != nil {
					t.Fatal(err)
				}
				weighted := strings.Contains(plan, "count=weighted")
				if collapses := strings.Count(plan, "collapse="); weighted != (countCollapses[i] >= 0) || weighted && collapses != countCollapses[i] {
					t.Errorf("%s: weighted=%v with %d collapsing steps, want %d\n%s", label, weighted, collapses, countCollapses[i], plan)
				}
				got, err := e.Query(model, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := e.Query(model, enumerating(q))
				if err != nil {
					t.Fatalf("%s: enumerating: %v", label, err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s: counting differs from enumerating\n%s\n%s", label, q, firstDiff(want.String(), got.String()))
				}
			}
		}
	}
}

// TestCountExplain: EXPLAIN marks EQ11d's BGP weighted and its second
// and third steps collapsing; EXPLAIN ANALYZE shows how many rows a step
// folded, and every step's input is the rows the step before it kept.
func TestCountExplain(t *testing.T) {
	e := NewEngine(egoNetStore(t, 900, 5))
	q := testPrologue + countShapeQueries()[3]
	plan, err := e.Explain("", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BGP (4 patterns) count=weighted", "collapse=[? seq3]", "collapse=[? seq2]"} {
		if !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, plan)
		}
	}
	_, prof, err := e.QueryProfiled("", q)
	if err != nil {
		t.Fatal(err)
	}
	bgp := prof.Plan[0]
	if !bgp.Weighted || len(bgp.Children) != 4 {
		t.Fatalf("unexpected plan:\n%s", prof.Render())
	}
	for i, step := range bgp.Children {
		if collapsing := i == 1 || i == 2; (step.Collapse != "") != collapsing || step.Collapsed > 0 && !collapsing {
			t.Errorf("step %d: collapse=%q collapsed=%d", i+1, step.Collapse, step.Collapsed)
		}
		if i > 0 && step.RowsIn != bgp.Children[i-1].RowsOut {
			t.Errorf("step %d: in=%d, but step %d kept %d rows", i+1, step.RowsIn, i, bgp.Children[i-1].RowsOut)
		}
	}
	// Five distinct ?seq3 reach 25 distinct ?seq2, so step 2 folds
	// nothing here; step 3 does.
	third := bgp.Children[2]
	if txt := prof.Render(); third.Collapsed == 0 || !strings.Contains(txt, fmt.Sprintf("in=%d collapsed=%d out=%d", third.RowsIn, third.Collapsed, third.RowsOut)) {
		t.Errorf("EXPLAIN ANALYZE lacks step 3's collapsed count:\n%s", txt)
	}
}

// TestCountBudgetChargesWork: a budget charges the rows a query
// touches, and a weighted row is one of them however many solutions it
// stands for. The unanchored 3-hop count needs a MaxWork of 13 404
// counting and 147 392 enumerating, so 50 000 lets the count through
// and stops its enumerating form.
func TestCountBudgetChargesWork(t *testing.T) {
	st := egoNetStore(t, 900, 5)
	q := testPrologue + countShapeQueries()[7]
	want, err := NewEngine(st).Query("", q)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 50_000}
	if got, err := e.Query("", q); err != nil || got.String() != want.String() {
		t.Fatalf("counting under MaxWork 50 000: %v, err %v; want %v", got, err, want)
	}
	if _, err := e.Query("", enumerating(q)); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("enumerating under MaxWork 50 000: err = %v, want guard.ErrBudgetExceeded", err)
	}
}

// TestCountCancellationMidCollapse cancels the unanchored 3-hop count
// while its second step collapses — scans stall 1 ms per 16 rows, and
// the first step's 4 500 rows have passed — and checks it stops
// promptly with guard.ErrCanceled.
func TestCountCancellationMidCollapse(t *testing.T) {
	st := egoNetStore(t, 900, 5)
	fi := store.NewFaultInjector()
	fi.StallScans(16, time.Millisecond)
	st.SetFaultInjector(fi)
	defer st.SetFaultInjector(nil)
	q := testPrologue + countShapeQueries()[7]
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start, before := time.Now(), fi.Scanned()
	go func() {
		_, err := e.QueryContext(ctx, "", q)
		done <- err
	}()
	for fi.Scanned()-before <= 5000 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the second step did not start")
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

// spStore is the SP twitter.TestConfig() store of the count kernel.
var spStore *store.Store

// BenchmarkCountChainKernel: EQ11d, a 4-hop path count, from the node
// whose follows out-degree is closest to the paper's start node's 21,
// on the SP twitter.TestConfig() store — counting, and enumerating
// through a SELECT * sub-select.
func BenchmarkCountChainKernel(b *testing.B) {
	if spStore == nil {
		st, err := pgrdf.NewStore(pgrdf.SP)
		if err != nil {
			b.Fatal(err)
		}
		if err := pgrdf.LoadSingle(st, pgrdf.NewConverter(pgrdf.SP).Convert(twitter.Generate(twitter.TestConfig())), "sp"); err != nil {
			b.Fatal(err)
		}
		spStore = st
	}
	degree := map[store.ID]int{}
	dict := spStore.Dict()
	p := store.AnyPattern()
	p.P = dict.Lookup(rdf.NewIRI(rdf.RelNS + "follows"))
	spStore.View().Scan(p, func(q store.IDQuad) bool {
		degree[q.S]++
		return true
	})
	start, best := store.NoID, 1<<30
	for id, d := range degree {
		if off := max(d-21, 21-d); off < best || off == best && id < start {
			start, best = id, off
		}
	}
	q := EQ11Queries(dict.Term(start).Value)[3]
	b.Run("counting", func(b *testing.B) { runKernel(b, spStore, q, nil) })
	b.Run("enumerating", func(b *testing.B) { runKernel(b, spStore, enumerating(q), nil) })
}
