package sparql

import (
	"context"
	"errors"
	"fmt"
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
//     and one out-edge, so no side's range repeats from one input row to
//     the next and every row gallops.
//
// It returns the quads of each model.
func intersectStore(t *testing.T) (m1, m2, m3 []rdf.Quad) {
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
	return m1, m2, m3
}

// TestIntersectMatchesNestedLoop is the fused-join differential. On
// intersectStore — freshly loaded; with unmerged inserts and tombstones
// inside the follows and hasTag ranges the seekers read, so marked
// ranges come out of a seeker's merge buffer that its next Seek
// overwrites; compacted — every intersection shape, over all models, m1
// alone and m3 alone, must return byte for byte (row order included)
// what the index-nested-loop-only engine returns, and the reference
// evaluator's multiset of rows; the fusable shapes must fuse and the
// others must not. The triangle shape must walk and gallop where
// intersectStore says: both on m1, only gallop on m3.
func TestIntersectMatchesNestedLoop(t *testing.T) {
	m1, m2, m3 := intersectStore(t)
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
	for _, m := range []struct {
		name  string
		quads []rdf.Quad
	}{{"m1", base}, {"m2", m2}, {"m3", m3}} {
		if _, err := st.Load(m.name, m.quads); err != nil {
			t.Fatal(err)
		}
	}
	gone := map[rdf.Quad]bool{}
	for _, q := range deleted {
		gone[q] = true
	}
	var live []rdf.Quad
	for _, q := range append(append([]rdf.Quad(nil), base...), held...) {
		if !gone[q] {
			live = append(live, q)
		}
	}
	states := []struct {
		name   string
		mutate func()
		m1     []rdf.Quad
	}{
		{"loaded", func() {}, base},
		{"delta", func() {
			for _, q := range held {
				if ok, err := st.Insert("m1", q); err != nil || !ok {
					t.Fatalf("insert %s: %v %v", q, ok, err)
				}
			}
			for _, q := range deleted {
				if ok, err := st.Delete("m1", q); err != nil || !ok {
					t.Fatalf("delete %s: %v %v", q, ok, err)
				}
			}
		}, live},
		{"compacted", st.Compact, live},
	}
	for _, state := range states {
		state.mutate()
		nlj := NewEngine(st)
		nlj.DisableHashJoin = true
		e := NewEngine(st)
		e.HashJoinThreshold = 16
		for _, dataset := range []struct {
			model string
			quads []rdf.Quad
		}{{"", append(append(append([]rdf.Quad(nil), state.m1...), m2...), m3...)}, {"m1", state.m1}, {"m3", m3}} {
			for i, q := range intersectShapeQueries {
				q = testPrologue + q
				want, err := nlj.Query(dataset.model, q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%q/shape %d", state.name, dataset.model, i)
				fused := fusedSteps(t, e, dataset.model, q) != ""
				if fused != (i < len(intersectShapeQueries)-unfusedShapes) {
					t.Errorf("%s: fused = %v\n%s", label, fused, q)
				}
				got, prof, err := e.QueryProfiled(dataset.model, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s: intersection join differs from nested loops\n%s\n%s", label, q, firstDiff(want.String(), got.String()))
				}
				checkAgainstReference(t, e, dataset.model, dataset.quads, label, q)
				if i == 0 {
					binder := prof.Plan[0].Children[1]
					walks := dataset.model != "m3"
					if binder.Galloped == 0 || (binder.Walked > 0) != walks || binder.Walked+binder.Galloped != binder.RowsIn {
						t.Errorf("%s: marked=%d walked=%d galloped=%d of %d rows; want walks = %v and gallops",
							label, binder.Marked, binder.Walked, binder.Galloped, binder.RowsIn, walks)
					}
				}
			}
		}
		if ws := st.WriteStats(); state.name == "delta" && (ws.DeltaRows == 0 || ws.Tombstones == 0) {
			t.Fatalf("delta state has %d delta rows and %d tombstones", ws.DeltaRows, ws.Tombstones)
		}
	}
}

// triangleKernels is what the triangle count's fused group charges
// MaxWork, and which kernel each of its input rows runs, on a store
// whose follows edges are distinct and all in one model's default graph,
// derived from the edge set with each side's values in ID order (the
// order the indexes sort by):
//
//   - the driving scan reads each edge (x, y) once, in (y, x) order;
//   - per edge the group seeks out(y) and in(x): two units. A seek
//     whose pattern differs from its side's previous one narrows; the
//     side's narrow that brings its narrows times store.DirPayback to
//     the follows rows builds its directory, reading every follows row
//     (one unit each), and that narrow and every later one are answered
//     by the directory;
//   - when the marks hold the current out(y) or in(x), or else one of
//     them is the previous edge's (out(y) first), and the other side is
//     shorter than walkRatio times that one, the row walks the other
//     side. If the marks held a different range, marking charges one per
//     value it clears and one per row it marks. The walk charges each of
//     its rows and, per common value, two: one row on each side;
//   - every other row leapfrogs (store.Leapfrog): one per gallop that
//     does not run off a side's end, and two per common value, one row
//     on each side;
//   - each common value is emitted once: one unit.
func triangleKernels(t *testing.T, st *store.Store) (k kernelCounts) {
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
	k.work = int64(len(edges))
	type key struct {
		side int
		v    uint64
	}
	mark, markValues := key{side: -1}, 0
	var prev edge
	var narrows [2]int
	buildAt := max(1, (len(edges)+store.DirPayback-1)/store.DirPayback)
	for i, e := range edges {
		k.work += 2
		for s, narrow := range [2]bool{i == 0 || e.y != prev.y, i == 0 || e.x != prev.x} {
			if !narrow {
				continue
			}
			if narrows[s]++; narrows[s] == buildAt {
				k.work += int64(len(edges))
			}
			if narrows[s] >= buildAt {
				k.dir++
			}
		}
		sides := [2][]uint64{out[e.y], in[e.x]}
		cur := [2]key{{0, e.y}, {1, e.x}}
		cand := -1
		switch {
		case i > 0 && e.y == prev.y:
			cand = 0
		case i > 0 && e.x == prev.x:
			cand = 1
		}
		if mark.side >= 0 && cur[mark.side] == mark {
			cand = mark.side
		}
		prev = e
		if cand >= 0 && len(sides[1-cand]) < walkRatio*len(sides[cand]) {
			k.walked++
			if cur[cand] != mark {
				k.marked++
				k.work += int64(markValues + len(sides[cand]))
				mark, markValues = cur[cand], len(sides[cand])
			}
			_, hits := leapfrogSorted(sides[0], sides[1])
			k.work += int64(len(sides[1-cand])) + 2*hits + hits
			continue
		}
		k.galloped++
		if cand >= 0 {
			k.longer++
		}
		seeks, hits := leapfrogSorted(sides[0], sides[1])
		k.work += seeks + 2*hits + hits
	}
	return k
}

// kernelCounts is triangleKernels' answer: the work charged, the input
// rows that mark, walk and gallop, the galloping rows one of whose
// sides the marks hold or repeats — the other being walkRatio times
// longer — and the seeks a directory answers.
type kernelCounts struct {
	work, marked, walked, galloped, longer, dir int64
}

// leapfrogSorted replays store.Leapfrog over two ascending lists of
// distinct values: the gallops that land inside a list, and the values
// both hold.
func leapfrogSorted(a, b []uint64) (seeks, hits int64) {
	sides, pos := [2][]uint64{a, b}, [2]int{}
	for {
		if pos[0] == len(a) || pos[1] == len(b) {
			return seeks, hits
		}
		x := max(a[pos[0]], b[pos[1]])
		for agree := false; !agree; {
			agree = true
			for s, vs := range sides {
				if vs[pos[s]] < x {
					p := sort.Search(len(vs), func(i int) bool { return vs[i] >= x })
					if p == len(vs) {
						return seeks, hits
					}
					pos[s] = p
					seeks++
				}
				if y := vs[pos[s]]; y != x {
					x, agree = y, false
				}
			}
		}
		hits++
		pos[0]++
		pos[1]++
	}
}

// TestIntersectCharges pins the triangle count's MaxWork charges and
// kernel choices to triangleKernels on hubStore, whose rows mark, walk,
// gallop because a side does not repeat, and gallop because the hub's
// in-edges outnumber a vertex's out-edges over walkRatio times, and
// whose seekers build their directories: the full charge passes and one
// unit less trips, and EXPLAIN ANALYZE's binder line reports the same
// ticks, kernel counts and directory seeks.
func TestIntersectCharges(t *testing.T) {
	st := hubStore(t, 400, 2, false)
	k := triangleKernels(t, st)
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
	if ticks != k.work || binder.Marked != k.marked || binder.Walked != k.walked || binder.Galloped != k.galloped || binder.Dir != k.dir {
		t.Fatalf("ticks=%d marked=%d walked=%d galloped=%d dir=%d, want %+v",
			ticks, binder.Marked, binder.Walked, binder.Galloped, binder.Dir, k)
	}
	if line := fmt.Sprintf(" marked=%d walked=%d galloped=%d dir=%d", k.marked, k.walked, k.galloped, k.dir); !strings.Contains(prof.Render(), line) {
		t.Fatalf("EXPLAIN ANALYZE lacks %q:\n%s", line, prof.Render())
	}
	t.Logf("hubStore(400, 2): %+v", k)
	if k.marked == 0 || k.walked == 0 || k.longer == 0 || k.galloped == k.longer || k.dir == 0 {
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
// second input row marks the hub's out-edges (marks rows) before any
// other intersection work. The work before that marking is the driving
// scan's first 64 rows and two input rows' seeks and gallops, far under
// half the marking's 4 096 rows. The checker's seeker narrows on every
// input row, so it builds its directory on row 2×marks/store.DirPayback,
// reading all 2×marks follows rows; the work before that build is the
// marking plus under 1 500 units of scan batches, seeks and one-row
// walks. So a budget of vecRampStart plus half the marking, or plus the
// marking and half the build, trips at the tick carrying it, which
// polls nothing, so the Done calls of that run are the ones before it. One call later the context is canceled: that
// tick crosses a poll boundary and must stop the query with
// guard.ErrCanceled.
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
	}{
		{"marking", vecRampStart + marks/2},
		{"directory build", vecRampStart + marks + marks},
	} {
		probe := guardtest.NewDoneAfter(context.Background(), 0)
		e := NewEngine(st)
		e.Limits = guard.Budget{MaxWork: tc.budget}
		if _, err := e.QueryContext(probe, "", q); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("budget before the %s's tick: err = %v", tc.tick, err)
		}
		ctx := guardtest.NewDoneAfter(context.Background(), probe.Calls()+1)
		if _, err := NewEngine(st).QueryContext(ctx, "", q); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("%s: err = %v, want guard.ErrCanceled", tc.tick, err)
		}
	}
}
