package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

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
// follows; and model m2 with further follows edges, none of them also
// in m1. It returns the quads of each model.
func intersectStore(t *testing.T) (m1, m2 []rdf.Quad) {
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
	return m1, m2
}

// TestIntersectMatchesNestedLoop is the fused-join differential. On
// intersectStore — freshly loaded; with unmerged inserts and tombstones
// inside the follows and hasTag ranges the seekers read; compacted —
// every intersection shape, over all models and over m1 alone, must
// return byte for byte (row order included)
// what the index-nested-loop-only engine returns, and the reference
// evaluator's multiset of rows; the fusable shapes must fuse and the
// others must not.
func TestIntersectMatchesNestedLoop(t *testing.T) {
	m1, m2 := intersectStore(t)
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
		}{{"", append(append([]rdf.Quad(nil), state.m1...), m2...)}, {"m1", state.m1}} {
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
				got, err := e.Query(dataset.model, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s: intersection join differs from nested loops\n%s\n%s", label, q, firstDiff(want.String(), got.String()))
				}
				checkAgainstReference(t, e, dataset.model, dataset.quads, label, q)
			}
		}
		if ws := st.WriteStats(); state.name == "delta" && (ws.DeltaRows == 0 || ws.Tombstones == 0) {
			t.Fatalf("delta state has %d delta rows and %d tombstones", ws.DeltaRows, ws.Tombstones)
		}
	}
}
