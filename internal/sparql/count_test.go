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

// sumShapeQueries are the triangle count's variants around a fused
// group that sums (DESIGN.md §22): grouped by a variable the group
// does not bind (sums), grouped by the one it binds (must not: the key
// is live), and filtered inside the group (must not).
var sumShapeQueries = []string{
	`SELECT ?x (COUNT(*) AS ?n) WHERE { ?x rel:follows ?y . ?y rel:follows ?z . ?z rel:follows ?x } GROUP BY ?x`,
	`SELECT ?z (COUNT(*) AS ?n) WHERE { ?x rel:follows ?y . ?y rel:follows ?z . ?z rel:follows ?x } GROUP BY ?z`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?x rel:follows ?y . ?y rel:follows ?z . ?z rel:follows ?x FILTER (?z != ?x) }`,
}

// rotationShapeQueries are count shapes around the rotation rule
// (DESIGN.md §22, "Counting one rotation") beyond the EQ12 form and
// the triangles grouped by ?x or ?z or filtered: the triangle count
// counting a variable, the 4-cycle count (does not rotate: no 3-cycle
// of its variables maps it onto itself), a triangle whose predicate is
// a variable the cycle keeps, the same fed that variable by VALUES — so
// no group fuses and the rule runs row by row on the nested loops' scans
// — and the triangle count fed ?x by VALUES, whose rule
// applies to the UNDEF row alone.
var rotationShapeQueries = []string{
	`SELECT (COUNT(?b) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d . ?d rel:follows ?a }`,
	`SELECT (COUNT(*) AS ?n) WHERE { ?x ?p ?y . ?y ?p ?z . ?z ?p ?x }`,
	`SELECT (COUNT(*) AS ?n) WHERE { VALUES ?p { rel:follows } ?x ?p ?y . ?y ?p ?z . ?z ?p ?x }`,
	`SELECT (COUNT(*) AS ?n) WHERE { VALUES ?x { <http://pg/q1> UNDEF <http://pg/q3> } ?x rel:follows ?y . ?y rel:follows ?z . ?z rel:follows ?x }`,
}

// countCollapses is how many steps of each countShapeQueries,
// sumShapeQueries and rotationShapeQueries plan drop a column (EXPLAIN's
// collapse=, where groups fuse), and -1 where the BGP must run
// unweighted: EQ11a–e collapse from their third hop on, EQ12 and the
// unanchored 2-hop only before their last step, the VALUES shape —
// planned for an unbound ?v — after its first two, the GROUP BY ?a
// shape only once ?b is dead, the FILTER shape only before ?b's filter
// runs, the 3-cycle with a tail and the 4-cycle only after their first
// step; no triangle variant collapses.
var countCollapses = []int{0, 0, 1, 2, 3, 0, 1, 2, 2, 1, 1, 1, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0}

// countSums are the shapes, indexed as countCollapses, whose fused group
// sums: EQ12, the 3-cycle with a tail, the triangles grouped by ?x, the
// triangle count counting ?b, the 4-cycle, the triangles over a
// predicate variable, and the triangle count fed ?x by VALUES (its
// UNDEF row).
var countSums = map[int]bool{5: true, 11: true, 14: true, 17: true, 18: true, 19: true, 21: true}

// countRotates are the shapes, indexed as countCollapses, that plan the
// rotation rule: the EQ12 form, the triangle count counting ?b, the
// triangles over a predicate variable, with and without VALUES, and
// the triangle count fed ?x by VALUES (the rule still runs for UNDEF).
// Grouped by ?x or ?z, filtered on ?z and ?x, the 4-cycle and the
// 3-cycle with a tail do not.
var countRotates = map[int]bool{5: true, 17: true, 19: true, 20: true, 21: true}

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

// nonSimpleMarks builds two triangle gadgets whose marked ranges are
// not simple (store.Marks) when m1 alone is queried. Each has two
// edges x → y and x' → y, so the second driving row repeats out(y),
// marks it and walks in(x'):
//
//   - in gadget a, out(y) holds z on two rows in two named graphs of m1
//     plus a row in m2, and so does the walked in(x'): a hit stands for
//     two visible marked rows, not one;
//   - in gadget b, out(y) holds each value once, but its edge to z is
//     in m2 only, so the visible in(x') hits z where no marked row is
//     visible.
func nonSimpleMarks() (m1, m2 []rdf.Quad) {
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	node := func(g string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/%s%d", g, i)) }
	edge := func(s, o rdf.Term, g string) rdf.Quad {
		if g == "" {
			return rdf.Quad{S: s, P: follows, O: o}
		}
		return rdf.NewQuad(s, follows, o, rdf.NewIRI("http://pg/"+g))
	}
	x, y, z, x2 := node("a", 0), node("a", 1), node("a", 2), node("a", 3)
	m1 = append(m1, edge(x, y, ""), edge(x2, y, ""))
	for _, g := range []string{"ga1", "ga2"} {
		m1 = append(m1, edge(y, z, g), edge(z, x, g), edge(z, x2, g))
	}
	m2 = append(m2, edge(y, z, ""), edge(z, x, ""), edge(z, x2, ""))
	x, y, z, x2 = node("b", 0), node("b", 1), node("b", 2), node("b", 3)
	m1 = append(m1, edge(x, y, ""), edge(x2, y, ""), edge(y, node("b", 4), ""), edge(z, x, ""), edge(z, x2, ""))
	m2 = append(m2, edge(y, z, ""))
	return m1, m2
}

// summing reports whether a profile's plan has a fused group that
// summed its matches.
func summing(ns []*ProfileNode) bool {
	for _, n := range ns {
		if n.Summed > 0 || summing(n.Children) {
			return true
		}
	}
	return false
}

// rotationGadgets builds the shapes the rotation rule's ties and
// weights turn on, in m1 (DESIGN.md §22): a self-loop in two named
// graphs (x = y = z, twice on each side of the group); a self-loop on a
// node of a 2-cycle (x = y < z and x = z < y); a 3-cycle with every
// edge in two graphs (marks that are not simple); and a hub, interned
// before its 80 spokes, that they all follow and that follows every
// eighth: each spoke follows the next, and the hub's in-edges, all past
// it, gallop against a spoke's out-edges. del is one of the 3-cycle's
// rows, which the delta state deletes, and ins a second self-loop on
// the 2-cycle, which it inserts.
func rotationGadgets() (m1 []rdf.Quad, del, ins rdf.Quad) {
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	q := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/q%d", i)) }
	in := func(s, o rdf.Term, g string) rdf.Quad {
		if g == "" {
			return rdf.Quad{S: s, P: follows, O: o}
		}
		return rdf.NewQuad(s, follows, o, rdf.NewIRI("http://pg/"+g))
	}
	m1 = append(m1, in(q(0), q(0), "g1"), in(q(0), q(0), "g2"))
	m1 = append(m1, in(q(1), q(1), ""), in(q(1), q(2), ""), in(q(2), q(1), ""))
	for _, g := range []string{"g1", "g2"} {
		m1 = append(m1, in(q(3), q(4), g), in(q(4), q(5), g), in(q(5), q(3), g))
	}
	hub := rdf.NewIRI("http://pg/qhub")
	spoke := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/qs%d", i)) }
	m1 = append(m1, in(hub, spoke(0), ""))
	for i := 0; i < 80; i++ {
		m1 = append(m1, in(spoke(i), hub, ""), in(spoke(i), spoke(i+1), ""))
		if i%8 == 0 && i > 0 {
			m1 = append(m1, in(hub, spoke(i), ""))
		}
	}
	return m1, in(q(3), q(4), "g1"), in(q(2), q(2), "")
}

// TestCountingMatchesEnumerating is the counting differential: every
// countShapeQueries, sumShapeQueries and rotationShapeQueries shape must
// answer exactly what its enumerating form answers, on countStore plus
// nonSimpleMarks and rotationGadgets freshly loaded, with delta rows and
// tombstones in the follows ranges, and compacted; over all models and
// over m1; under the default settings and with index nested loops only.
// The weighted shapes must plan weighted with the collapses
// countCollapses names (the planned intersections' plans), the others
// unweighted; exactly the countSums shapes must sum where groups fuse;
// exactly the countRotates shapes must plan the rotation rule, and the
// rotating triangle count must gallop where groups fuse.
func TestCountingMatchesEnumerating(t *testing.T) {
	m1, m2 := countStore(t)
	// Every 6th m1 quad is held out of the load and inserted later;
	// every 7th loaded one is deleted. The gadgets stay as built but for
	// rotationGadgets' del and ins.
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
	g1, g2 := nonSimpleMarks()
	r1, del, ins := rotationGadgets()
	base, m2 = append(append(base, g1...), r1...), append(m2, g2...)
	held, deleted = append(held, ins), append(deleted, del)
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
	shapes := append(append(countShapeQueries(), sumShapeQueries...), rotationShapeQueries...)
	if len(shapes) != len(countCollapses) {
		t.Fatalf("%d shapes, %d expected collapse counts", len(shapes), len(countCollapses))
	}
	engines := []struct {
		name string
		set  func(*Engine)
	}{
		{"default", func(*Engine) {}},
		{"nlj", func(e *Engine) { e.NestedLoopsOnly = true }},
	}
	for _, state := range states {
		state.mutate()
		for _, model := range []string{"", "m1"} {
			for i, q := range shapes {
				q = testPrologue + q
				want, err := NewEngine(st).QueryContext(t.Context(), model, enumerating(q))
				if err != nil {
					t.Fatalf("%s/%q/shape %d: enumerating: %v", state.name, model, i, err)
				}
				for _, eng := range engines {
					e := NewEngine(st)
					eng.set(e)
					fused := !e.NestedLoopsOnly
					label := fmt.Sprintf("%s/%q/%s/shape %d", state.name, model, eng.name, i)
					plan, err := e.Explain(model, q)
					if err != nil {
						t.Fatal(err)
					}
					weighted := strings.Contains(plan, "count=weighted")
					if collapses := strings.Count(plan, "collapse="); weighted != (countCollapses[i] >= 0) || fused && weighted && collapses != countCollapses[i] {
						t.Errorf("%s: weighted=%v with %d collapsing steps, want %d\n%s", label, weighted, collapses, countCollapses[i], plan)
					}
					if rotates := strings.Contains(plan, "count=weighted rotation=3"); rotates != countRotates[i] {
						t.Errorf("%s: rotates = %v, want %v\n%s", label, rotates, countRotates[i], plan)
					}
					got, prof, err := e.QueryProfiledContext(t.Context(), model, q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if fused && summing(prof.Plan) != countSums[i] {
						t.Errorf("%s: sums = %v, want %v\n%s", label, !countSums[i], countSums[i], prof.Render())
					}
					if fused && i == 5 && prof.Plan[0].Children[1].Galloped == 0 {
						t.Errorf("%s: the rotating triangle count does not gallop\n%s", label, prof.Render())
					}
					if got.String() != want.String() {
						t.Fatalf("%s: counting differs from enumerating\n%s\n%s", label, q, firstDiff(want.String(), got.String()))
					}
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
	_, prof, err := e.QueryProfiledContext(t.Context(), "", q)
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
	want, err := NewEngine(st).QueryContext(t.Context(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	e.Limits = guard.Budget{MaxWork: 50_000}
	if got, err := e.QueryContext(t.Context(), "", q); err != nil || got.String() != want.String() {
		t.Fatalf("counting under MaxWork 50 000: %v, err %v; want %v", got, err, want)
	}
	if _, err := e.QueryContext(t.Context(), "", enumerating(q)); !errors.Is(err, guard.ErrBudgetExceeded) {
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
