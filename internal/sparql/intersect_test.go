package sparql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/guard/guardtest"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// intersectShapeQueries are the plan shapes around sorted intersection
// joins. TestExecutorGolden pins their results and serial profiles,
// TestEngineMatchesReference checks them on RF/NG/SP, and
// TestIntersectMatchesNestedLoop on a store with parallel edges in
// named graphs and two models. The last two must not fuse.
var intersectShapeQueries = []string{
	`SELECT ?a ?b ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`,
	`SELECT ?a ?b ?c ?d WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?d . ?d rel:follows ?a }`,
	`SELECT ?n ?n3 WHERE { ?n key:hasTag ?t . ?n rel:follows ?n2 . ?n2 key:hasTag ?t . ?n2 rel:follows ?n3 . ?n3 key:hasTag ?t FILTER (?t = "#webseries") }`,
	`SELECT ?p WHERE { ?p key:hasTag "#webseries" . ?p rdfs:subPropertyOf rel:follows }`,
	`SELECT ?a ?b ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a FILTER (?c != ?b) }`,
	`SELECT ?x WHERE { ?x rel:follows ?x . ?x key:hasTag "#webseries" }`,
	`SELECT ?a ?b ?c ?g WHERE { ?a rel:follows ?b . ?b rel:follows ?c . GRAPH ?g { ?c rel:follows ?a } }`,
}

// unfusedShapes counts the trailing intersectShapeQueries that must not
// fuse: a self-loop check (its variable occurs twice) and a checking
// step that binds a GRAPH variable.
const unfusedShapes = 2

// serveIndexes are the indexes `pgrdf serve` creates by default.
var serveIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}

// fusedSteps returns the join steps EXPLAIN marks join=intersect, as
// their step numbers in plan order.
func fusedSteps(t *testing.T, e *Engine, model, q string) string {
	t.Helper()
	plan, err := e.Explain(model, q)
	if err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
	var steps []string
	for _, line := range strings.Split(plan, "\n") {
		if strings.HasSuffix(line, "join=intersect") {
			line = strings.TrimSpace(line)
			steps = append(steps, line[:strings.Index(line, ":")])
		}
	}
	return strings.Join(steps, " ")
}

// TestIntersectFiresWhereExpected pins which steps of EQ1–EQ12 fuse
// into sorted intersections on NG and SP data under serve's indexes:
// EQ12's closing pair and EQ3's three tag/follows pairs do; so does the
// subproperty lookup of the SP "b" variants; none of the lookup
// classes (EQ1, EQ2, EQ4, EQ5a, EQ6a, EQ8a, EQ11b — the lookup-ng and
// mixed-rw-ng read mix) and none of EQ9, EQ10, EQ11a–e does, so those
// workloads run exactly the plans they ran before.
func TestIntersectFiresWhereExpected(t *testing.T) {
	want := map[string]string{
		"EQ12": "2 3",
		"EQ3":  "2 3 4 5 6 7",
		"EQ5b": "1 2", "EQ6b": "1 2", "EQ7b": "1 2", "EQ8b": "1 2",
	}
	for _, scheme := range []pgrdf.Scheme{pgrdf.NG, pgrdf.SP} {
		st, err := store.NewWithIndexes(serveIndexes)
		if err != nil {
			t.Fatal(err)
		}
		ds := pgrdf.NewConverter(scheme).Convert(twitter.Generate(twitter.TestConfig()))
		if err := pgrdf.LoadSingle(st, ds, "data"); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(st)
		nlj := NewEngine(st)
		nlj.DisableHashJoin = true
		queries := PaperQueries()
		names := make([]string, 0, len(queries))
		for name := range queries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got := fusedSteps(t, e, "", queries[name]); got != want[name] {
				t.Errorf("%s %s: fused steps %q, want %q", scheme, name, got, want[name])
			}
			if got := fusedSteps(t, nlj, "", queries[name]); got != "" {
				t.Errorf("%s %s: DisableHashJoin fused steps %q", scheme, name, got)
			}
		}
	}
}

// intersectStore builds the differential's dataset: a follows graph in
// model m1 whose edges each sit in their own named graph, every fourth
// doubled in a second graph and every fifth also in the default graph
// (so a triangle's rows repeat per combination of parallel edges);
// "#webseries" / "#news" tags on nodes and on SP-style subproperties of
// follows; model m2 with further follows edges, none of them also in
// m1; and the shapes the intersection's kernels turn on:
//
//   - in m1, a hub that 130 spokes follow and that follows every eighth
//     spoke; each spoke follows the next. The hub is interned after the
//     spokes, so its row into a spoke comes right after the spoke's
//     other in-edge, whose out-edges (two) the marks then hold — and the
//     hub's in-edges, 65 times as many, must gallop;
//   - model m3, ten disjoint follows 3-cycles: every node has one in-
//     and one out-edge, so every input row is a run of its own and
//     marks;
//   - model m4, the runs: a node w that 2 000 sources follow — its run
//     of input rows is longer than an input batch, so it crosses batches
//     — and that follows one node, t0, which follows every source, so
//     each row of the run closes a triangle and an enumerating group
//     fills its output batch and descends inside the run. The source
//     halfway through also has 100 in-edges of its own, over walkRatio
//     times w's one out-edge: the run walks, gallops on that row — the
//     only row of m4 with a nonempty binder range that gallops — and
//     walks again. t0's rows into the sources each start a one-row run
//     of the binder with the same x, so they mark in(t0) and walk.
//
// It returns the quads of each model.
func intersectStore(t *testing.T) (m1, m2, m3, m4 []rdf.Quad) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	follows := rdf.NewIRI(rdf.RelNS + "follows")
	hasTag := rdf.NewIRI("http://pg/k/hasTag")
	subProp := rdf.NewIRI("http://www.w3.org/2000/01/rdf-schema#subPropertyOf")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)) }
	graph := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/e%d", i)) }
	const nodes = 24
	seen := map[rdf.Quad]bool{}
	add := func(out *[]rdf.Quad, q rdf.Quad) {
		if !seen[q] {
			seen[q] = true
			*out = append(*out, q)
		}
	}
	for i := 0; i < 150; i++ {
		a, b := node(rng.Intn(nodes)), node(rng.Intn(nodes))
		add(&m1, rdf.NewQuad(a, follows, b, graph(i)))
		if i%4 == 0 {
			add(&m1, rdf.NewQuad(a, follows, b, graph(1000+i)))
		}
		if i%5 == 0 {
			add(&m1, rdf.Quad{S: a, P: follows, O: b})
		}
	}
	for i := 0; i < nodes; i++ {
		for _, tag := range []string{"#webseries", "#news"} {
			if rng.Intn(2) == 0 {
				add(&m1, rdf.Quad{S: node(i), P: hasTag, O: rdf.NewLiteral(tag)})
			}
		}
	}
	for i := 0; i < 12; i++ {
		p := rdf.NewIRI(fmt.Sprintf("http://pg/r/follows#%d", i))
		if i%3 != 0 {
			add(&m1, rdf.Quad{S: p, P: subProp, O: follows})
		}
		if i%2 == 0 {
			add(&m1, rdf.Quad{S: p, P: hasTag, O: rdf.NewLiteral("#webseries")})
		}
	}
	for i := 0; i < 60; i++ {
		add(&m2, rdf.Quad{S: node(rng.Intn(nodes)), P: follows, O: node(rng.Intn(nodes))})
	}
	const spokes = 130
	hub := rdf.NewIRI("http://pg/hub")
	spoke := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/h%d", i)) }
	for i := 0; i+1 < spokes; i++ {
		add(&m1, rdf.Quad{S: spoke(i), P: follows, O: spoke(i + 1)})
	}
	for i := 0; i < spokes; i++ {
		add(&m1, rdf.Quad{S: spoke(i), P: follows, O: hub})
		if i%8 == 0 {
			add(&m1, rdf.Quad{S: hub, P: follows, O: spoke(i)})
		}
	}
	cycle := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/c%d", i)) }
	for i := 0; i < 30; i++ {
		add(&m3, rdf.Quad{S: cycle(i), P: follows, O: cycle(i/3*3 + (i+1)%3)})
	}
	const sources = 2000
	w, t0 := rdf.NewIRI("http://pg/w"), rdf.NewIRI("http://pg/t0")
	source := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://pg/s%d", i)) }
	add(&m4, rdf.Quad{S: w, P: follows, O: t0})
	for i := 0; i < sources; i++ {
		add(&m4, rdf.Quad{S: source(i), P: follows, O: w})
		add(&m4, rdf.Quad{S: t0, P: follows, O: source(i)})
		if i == sources/2 {
			for j := 0; j < 100; j++ {
				add(&m4, rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://pg/r%d", j)), P: follows, O: source(i)})
			}
		}
	}
	return m1, m2, m3, m4
}

// intersectModel is one model of a differential store.
type intersectModel struct {
	name  string
	quads []rdf.Quad
}

// intersectStates loads models into a store with serve's indexes and
// calls check in three states: freshly loaded, except that every 6th
// quad of the first model is held out; with the held quads inserted and
// every 7th loaded one of that model deleted, unmerged — inserts and
// tombstones inside the ranges the seekers read, so marked ranges come
// out of a seeker's merge buffer that its next Seek overwrites; and
// compacted. check gets the quads each model holds in that state.
func intersectStates(t *testing.T, models []intersectModel, check func(state string, st *store.Store, quads map[string][]rdf.Quad)) {
	t.Helper()
	var base, held, deleted []rdf.Quad
	for i, q := range models[0].quads {
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
	quads := map[string][]rdf.Quad{}
	for i, m := range models {
		if i == 0 {
			m.quads = base
		}
		if _, err := st.Load(m.name, m.quads); err != nil {
			t.Fatal(err)
		}
		quads[m.name] = m.quads
	}
	check("loaded", st, quads)
	first := models[0].name
	for _, q := range held {
		if ok, err := st.Insert(first, q); err != nil || !ok {
			t.Fatalf("insert %s: %v %v", q, ok, err)
		}
	}
	gone := map[rdf.Quad]bool{}
	for _, q := range deleted {
		if ok, err := st.Delete(first, q); err != nil || !ok {
			t.Fatalf("delete %s: %v %v", q, ok, err)
		}
		gone[q] = true
	}
	var live []rdf.Quad
	for _, q := range append(append([]rdf.Quad(nil), base...), held...) {
		if !gone[q] {
			live = append(live, q)
		}
	}
	quads[first] = live
	if ws := st.WriteStats(); ws.DeltaRows == 0 || ws.Tombstones == 0 {
		t.Fatalf("delta state has %d delta rows and %d tombstones", ws.DeltaRows, ws.Tombstones)
	}
	check("delta", st, quads)
	st.Compact()
	check("compacted", st, quads)
}

// TestIntersectMatchesNestedLoop is the fused-join differential. In
// each of intersectStates' states of intersectStore's m1, m2 and m3,
// every intersection shape, over all models, m1 alone and m3 alone, must
// return byte for byte (row order included) what the
// index-nested-loop-only engine returns, and the reference evaluator's
// multiset of rows; the fusable shapes must fuse and the others must
// not. The triangle shape must walk and gallop where intersectStore
// says: both on m1, only walk on m3. On a store of m4 alone, in the same
// three states, the triangles (whose group fills its output batch inside
// w's run) and their count grouped by ?c (a group that emits per value
// in count mode, EQ12-SP-by-z's shape) must return what the nested
// loops return, and mark, walk and gallop on the rows triangleKernels
// says: w's run, which crosses input batches, marks once and walks but
// for its hub row, the only row that gallops against a nonempty marked
// range, and t0's rows into the sources mark in(t0). The reference
// evaluator, which scans every quad per solution,
// is too slow for m4's 4 000 rows.
func TestIntersectMatchesNestedLoop(t *testing.T) {
	m1, m2, m3, m4 := intersectStore(t)
	engines := func(st *store.Store) (nlj, e *Engine) {
		nlj = NewEngine(st)
		nlj.DisableHashJoin = true
		e = NewEngine(st)
		e.hashJoinThreshold = 16
		return nlj, e
	}
	// compare checks q against the nested loops and whether it fuses,
	// and returns the profile of the step the triangles' group binds at.
	compare := func(label string, nlj, e *Engine, model, q string, fuses bool) *ProfileNode {
		t.Helper()
		q = testPrologue + q
		want, err := nlj.Query(model, q)
		if err != nil {
			t.Fatal(err)
		}
		if fused := fusedSteps(t, e, model, q) != ""; fused != fuses {
			t.Errorf("%s: fused = %v\n%s", label, fused, q)
		}
		got, prof, err := e.QueryProfiled(model, q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: intersection join differs from nested loops\n%s\n%s", label, q, firstDiff(want.String(), got.String()))
		}
		return prof.Plan[0].Children[1]
	}
	intersectStates(t, []intersectModel{{"m1", m1}, {"m2", m2}, {"m3", m3}}, func(state string, st *store.Store, quads map[string][]rdf.Quad) {
		nlj, e := engines(st)
		for _, dataset := range []struct {
			model string
			quads []rdf.Quad
		}{{"", append(append(append([]rdf.Quad(nil), quads["m1"]...), m2...), m3...)}, {"m1", quads["m1"]}, {"m3", m3}} {
			for i, q := range intersectShapeQueries {
				label := fmt.Sprintf("%s/%q/shape %d", state, dataset.model, i)
				binder := compare(label, nlj, e, dataset.model, q, i < len(intersectShapeQueries)-unfusedShapes)
				checkAgainstReference(t, e, dataset.model, dataset.quads, label, testPrologue+q)
				if gallops := dataset.model != "m3"; i == 0 && (binder.Walked == 0 || (binder.Galloped > 0) != gallops || binder.Walked+binder.Galloped != binder.RowsIn) {
					t.Errorf("%s: marked=%d walked=%d galloped=%d of %d rows; want walks and gallops = %v",
						label, binder.Marked, binder.Walked, binder.Galloped, binder.RowsIn, gallops)
				}
			}
		}
	})
	byC := `SELECT ?c (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a } GROUP BY ?c`
	intersectStates(t, []intersectModel{{"m4", m4}}, func(state string, st *store.Store, quads map[string][]rdf.Quad) {
		nlj, e := engines(st)
		k := triangleKernels(t, st, false)
		if k.longer != 1 || k.marked >= k.walked || k.markedIn == 0 {
			t.Fatalf("%s: m4 does not walk, gallop on the hub's row alone, walk again and mark in(x): %+v", state, k)
		}
		for i, q := range []string{intersectShapeQueries[0], byC} {
			label := fmt.Sprintf("%s/m4/query %d", state, i)
			binder := compare(label, nlj, e, "m4", q, true)
			if binder.Marked != k.marked || binder.Walked != k.walked || binder.Galloped != k.galloped {
				t.Errorf("%s: marked=%d walked=%d galloped=%d of %d rows; want %+v",
					label, binder.Marked, binder.Walked, binder.Galloped, binder.RowsIn, k)
			}
		}
	})
}

// triangleKernels is what the triangle count's fused group charges
// MaxWork, and which kernel each of its input rows runs, on a store
// whose follows rows are all in one model — an edge may repeat in
// several graphs — derived from the rows with each side's values in ID
// order (the order the indexes sort by). The count reads nothing of
// the group's variable, so every input row sums its matches. rotated
// says the count runs the rotation rule (COUNT(*) with no key; a count
// grouped by a variable does not):
//
//   - the driving scan reads each row (x, y) once, in (y, x) order; the
//     rows of one y are a run of out(y), consecutive rows of one x
//     (an edge in several graphs, or the last row of one y and the
//     first of the next) a run of in(x). Rotated, only the rows with
//     x ≤ y go on to the group, and runs are of those rows;
//   - the first row of a run seeks its side: one unit. A side's seeker
//     counts its narrows, and the narrow that brings them times
//     store.DirPayback to the follows rows builds its directory,
//     reading every follows row (one unit each), when the values the
//     side narrows by (the rows' subjects for out(y), their objects for
//     in(x)) span at most store.DirSpan IDs per row; that narrow and
//     every later one are answered by the directory;
//   - rotated, each side starts past x: when x = y and both sides hold
//     x (a self-loop), counting x's rows first charges them, one unit
//     each. What follows reads only the values past x: the remaining
//     sides;
//   - the marked side is the one the marks hold, while its run lasts;
//     failing that, in(x) when out(y)'s run starts at the row and
//     in(x)'s does not, else out(y). A row whose other remaining side
//     is shorter than walkRatio times the marked remaining side walks
//     the other side, marking first unless the marks hold it: one unit
//     per value it clears (the previous marking's) and one per row of
//     the whole side it marks. The walk charges each of its rows; when
//     the marked side is not simple (a value on two rows) it also
//     charges, per common value, the marked side's rows holding it;
//   - a row with a common value, or a counted x, emits one row: one
//     unit.
func triangleKernels(t *testing.T, st *store.Store, rotated bool) (k kernelCounts) {
	t.Helper()
	follows := st.Dict().Lookup(rdf.NewIRI("http://pg/r/follows"))
	type edge struct{ x, y uint64 }
	var edges []edge
	out, in := map[uint64][]uint64{}, map[uint64][]uint64{}
	p := store.AnyPattern()
	p.P = follows
	st.View().Scan(p, func(q store.IDQuad) bool {
		x, y := uint64(q.S), uint64(q.C)
		edges = append(edges, edge{x, y})
		out[x] = append(out[x], y)
		in[y] = append(in[y], x)
		return true
	})
	for _, m := range []map[uint64][]uint64{out, in} {
		for _, vs := range m {
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].y < edges[j].y || edges[i].y == edges[j].y && edges[i].x < edges[j].x
	})
	// span[s] is how many IDs the values side s narrows by span.
	var span [2]uint64
	for s, m := range []map[uint64][]uint64{out, in} {
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for v := range m {
			lo, hi = min(lo, v), max(hi, v)
		}
		span[s] = hi - lo + 1
	}
	k.work = int64(len(edges))
	var rows []edge
	for _, e := range edges {
		if !rotated || e.x <= e.y {
			rows = append(rows, e)
		}
	}
	markValues, marked, short := 0, -1, false
	var narrows [2]int
	buildAt := max(1, (len(edges)+store.DirPayback-1)/store.DirPayback)
	for i, e := range rows {
		fresh := [2]bool{i == 0 || e.y != rows[i-1].y, i == 0 || e.x != rows[i-1].x}
		for s, narrow := range fresh {
			if !narrow {
				continue
			}
			if marked == s {
				marked = -1
			}
			k.work++
			dense := span[s] <= store.DirSpan*uint64(len(edges))
			if narrows[s]++; narrows[s] == buildAt && dense {
				k.work += int64(len(edges))
			}
			if narrows[s] >= buildAt && dense {
				k.dir++
			}
		}
		full := [2][]uint64{out[e.y], in[e.x]}
		var sides [2][]uint64
		var ties [2]int64
		for s, vs := range full {
			sides[s] = vs
			if !rotated {
				continue
			}
			sides[s] = vs[sort.Search(len(vs), func(i int) bool { return vs[i] >= e.x }):]
			for len(sides[s]) > 0 && sides[s][0] == e.x {
				sides[s] = sides[s][1:]
				ties[s]++
			}
		}
		tie := e.x == e.y && ties[0] > 0 && ties[1] > 0
		if tie {
			k.work += ties[0] + ties[1]
			k.ties++
		}
		lf := leapfrogSorted(sides[0], sides[1])
		if lf.hits > 0 || tie {
			k.work++
		}
		m := marked
		if m < 0 {
			m = 0
			if fresh[0] && short && !fresh[1] {
				m = 1
			}
		}
		short = fresh[0]
		if len(sides[1-m]) < walkRatio*len(sides[m]) {
			k.walked++
			if marked != m {
				k.marked++
				k.work += int64(markValues + len(full[m]))
				markValues, marked = distinct(full[m]), m
			}
			if m == 1 {
				k.markedIn++
			}
			k.work += int64(len(sides[1-m]))
			if distinct(full[m]) < len(full[m]) {
				k.nonSimple++
				k.work += lf.runs[m]
			}
			continue
		}
		k.galloped++
		if len(sides[m]) > 0 {
			k.longer++
		}
		k.work += lf.seeks + lf.runs[0] + lf.runs[1]
	}
	return k
}

// kernelCounts is triangleKernels' answer: the work charged, the input
// rows that mark, walk and gallop, the galloping rows whose other side
// is walkRatio times longer than a nonempty marked side, the walking
// rows whose marks hold in(x) and whose marks are not simple, the
// seeks a directory answers, and the rows that count x (rotated).
type kernelCounts struct {
	work, marked, walked, galloped, longer, markedIn, nonSimple, dir, ties int64
}

// distinct is the number of distinct values of an ascending list.
func distinct(vs []uint64) int {
	n := 0
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			n++
		}
	}
	return n
}

// leapfrogCounts is leapfrogSorted's answer: the gallops that land
// inside a list, the values both lists hold, and per list its entries
// holding one of them.
type leapfrogCounts struct {
	seeks, hits int64
	runs        [2]int64
}

// leapfrogSorted replays store.Leapfrog over two ascending lists, each
// common value's run of entries counted and passed on each side.
func leapfrogSorted(a, b []uint64) (lf leapfrogCounts) {
	sides, pos := [2][]uint64{a, b}, [2]int{}
	for {
		if pos[0] == len(a) || pos[1] == len(b) {
			return lf
		}
		x := max(a[pos[0]], b[pos[1]])
		for agree := false; !agree; {
			agree = true
			for s, vs := range sides {
				if vs[pos[s]] < x {
					p := sort.Search(len(vs), func(i int) bool { return vs[i] >= x })
					if p == len(vs) {
						return lf
					}
					pos[s] = p
					lf.seeks++
				}
				if y := vs[pos[s]]; y != x {
					x, agree = y, false
				}
			}
		}
		lf.hits++
		for s, vs := range sides {
			for ; pos[s] < len(vs) && vs[pos[s]] == x; pos[s]++ {
				lf.runs[s]++
			}
		}
	}
}

// withParallelEdges copies every fifth follows row of st's model net
// into a named graph, so the ranges holding them — marked or walked —
// hold a value on two rows.
func withParallelEdges(t *testing.T, st *store.Store) {
	t.Helper()
	p := store.AnyPattern()
	p.P = st.Dict().Lookup(rdf.NewIRI("http://pg/r/follows"))
	var extra []rdf.Quad
	i := 0
	st.View().Scan(p, func(q store.IDQuad) bool {
		if i++; i%5 == 0 {
			d := st.Dict()
			extra = append(extra, rdf.NewQuad(d.Term(q.S), d.Term(q.P), d.Term(q.C), rdf.NewIRI("http://pg/g1")))
		}
		return true
	})
	if _, err := st.Load("net", extra); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectCharges pins the triangle count's MaxWork charges and
// kernel choices to triangleKernels, rotated, on hubStore with the hub
// interned first and parallel edges (withParallelEdges), whose runs
// mark once and then walk row after row, some of whose rows mark
// in(x), whose rows sum by walking — over simple marks and marks that
// are not — and by galloping because the hub's in-edges, all past the
// hub, outnumber a vertex's out-edges past it over walkRatio times,
// some of whose rows count a self-loop's x, and whose seekers build
// their directories: the full charge passes and one unit less trips,
// and EXPLAIN ANALYZE's binder line reports the same ticks, kernel
// counts, directory seeks and summed rows.
func TestIntersectCharges(t *testing.T) {
	st := hubStore(t, 400, 2, true)
	withParallelEdges(t, st)
	k := triangleKernels(t, st, true)
	q := testPrologue + denseTriangles
	_, prof, err := NewEngine(st).QueryProfiled("", q)
	if err != nil {
		t.Fatal(err)
	}
	bgp := prof.Plan[0]
	var ticks int64
	for _, step := range bgp.Children {
		ticks += step.GuardTicks
	}
	binder := bgp.Children[1]
	if ticks != k.work || binder.Marked != k.marked || binder.Walked != k.walked || binder.Galloped != k.galloped ||
		binder.Dir != k.dir || binder.Summed != binder.RowsIn {
		t.Fatalf("ticks=%d marked=%d walked=%d galloped=%d dir=%d summed=%d of %d rows, want %+v",
			ticks, binder.Marked, binder.Walked, binder.Galloped, binder.Dir, binder.Summed, binder.RowsIn, k)
	}
	if line := fmt.Sprintf(" marked=%d walked=%d galloped=%d dir=%d summed=%d", k.marked, k.walked, k.galloped, k.dir, binder.RowsIn); !strings.Contains(prof.Render(), line) {
		t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", line, prof.Render())
	}
	t.Logf("hubStore(400, 2) with parallel edges: %+v", k)
	if k.marked == 0 || k.marked >= k.walked || k.walked == k.nonSimple || k.nonSimple == 0 || k.longer == 0 || k.markedIn == 0 || k.dir == 0 || k.ties == 0 {
		t.Fatalf("hubStore does not run every kernel: %+v", k)
	}
	for _, tc := range []struct {
		maxWork int64
		err     error
	}{{k.work, nil}, {k.work - 1, guard.ErrBudgetExceeded}} {
		e := NewEngine(st)
		e.Limits = guard.Budget{MaxWork: tc.maxWork}
		if _, err := e.Query("", q); !errors.Is(err, tc.err) {
			t.Fatalf("MaxWork %d (full charge %d): err = %v, want %v", tc.maxWork, k.work, err, tc.err)
		}
	}
}

// TestIntersectCancellationMidMark cancels a triangle count at the tick
// that charges a marking, and at the tick that charges a directory
// build. On hubStore(marks, 0, true) — the hub interned first — the
// driving scan reads the hub's marks in-edges first (its rows sort by
// object) and the count's rotation rule drops them all (x > y); each
// row it keeps is an out-edge of the hub, a run of the binder's out(y)
// of its own while the checker's in(hub) run goes on, so the second
// such row marks in(hub) (marks rows) before any other intersection
// work but three seeks. The work before that marking is the scan's
// marks dropped rows and its first 64 kept rows, and the seeks, far
// under half the marking. The binder's seeker narrows on every input
// row, so it builds its directory on row 2×marks/store.DirPayback,
// reading all 2×marks follows rows (whose subjects span marks+1 IDs);
// the work before that build is the dropped rows, the marking and
// under 1 500 units of scan batches and seeks. So a budget of marks
// plus vecRampStart plus half the marking, or plus the marking and half
// the build, trips at the tick carrying it, which polls nothing, so the
// Done calls of that run are the ones before it. The profile an aborted
// query returns says so: the scan stayed under the budget, the binder
// has marked (and, at the second budget, built its directory, which
// located that seek: dir=1), and the ticks charged before the failing
// TickN — all but the stage's charge, which that TickN carries — are
// within the budget. One call later the context is canceled: that tick
// crosses a poll boundary and must stop the query with guard.ErrCanceled.
func TestIntersectCancellationMidMark(t *testing.T) {
	const marks = 4096
	st := hubStore(t, marks, 0, true)
	q := testPrologue + denseTriangles
	_, prof, err := NewEngine(st).QueryProfiled("", q)
	if err != nil {
		t.Fatal(err)
	}
	if b := prof.Plan[0].Children[1]; b.Marked == 0 || b.Dir == 0 || b.GuardTicks < 4*marks {
		t.Fatalf("hubStore: marked=%d dir=%d ticks=%d", b.Marked, b.Dir, b.GuardTicks)
	}
	for _, tc := range []struct {
		tick   string
		budget int64
		charge int64 // what the stage adds to the failing TickN
		dir    int64 // the binder's seeks the directory located
	}{
		{"marking", marks + vecRampStart + marks/2, marks, 0},
		{"directory build", marks + vecRampStart + marks + marks, 2 * marks, 1},
	} {
		probe := guardtest.NewDoneAfter(context.Background(), 0)
		e := NewEngine(st)
		e.Limits = guard.Budget{MaxWork: tc.budget}
		_, prof, err := e.QueryProfiledContext(probe, "", q)
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("budget before the %s's tick: err = %v", tc.tick, err)
		}
		scan, b := prof.Plan[0].Children[0], prof.Plan[0].Children[1]
		ticks := scan.GuardTicks + b.GuardTicks
		if scan.GuardTicks >= tc.budget || b.Marked != 1 || b.Dir != tc.dir ||
			ticks <= tc.budget || ticks-tc.charge > tc.budget {
			t.Fatalf("%s: the budget of %d tripped elsewhere: scan ticks=%d, binder ticks=%d marked=%d dir=%d",
				tc.tick, tc.budget, scan.GuardTicks, b.GuardTicks, b.Marked, b.Dir)
		}
		ctx := guardtest.NewDoneAfter(context.Background(), probe.Calls()+1)
		if _, err := NewEngine(st).QueryContext(ctx, "", q); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("%s: err = %v, want guard.ErrCanceled", tc.tick, err)
		}
	}
}
