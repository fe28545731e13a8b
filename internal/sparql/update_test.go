package sparql

import (
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestModifyInsertWhere(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	// Materialize inverse followedBy edges.
	res, err := e.UpdateContext(t.Context(), "fig1", testPrologue+`
		INSERT { ?y <http://x/followedBy> ?x } WHERE { ?x rel:follows ?y }`)
	if err != nil || res.Inserted != 1 {
		t.Fatalf("insert-where: %+v, %v", res, err)
	}
	if n := countRows(t, e, "fig1", `SELECT ?x WHERE { ?x <http://x/followedBy> ?y }`); n != 1 {
		t.Fatalf("materialized rows = %d", n)
	}
}

func TestModifyDeleteInsertWhere(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	_, err := e.UpdateContext(t.Context(), "m", testPrologue+`INSERT DATA {
		<http://pg/v1> key:age "23"^^<http://www.w3.org/2001/XMLSchema#int> .
		<http://pg/v2> key:age "22"^^<http://www.w3.org/2001/XMLSchema#int> }`)
	if err != nil {
		t.Fatal(err)
	}
	// Rename the key:age property to key:years (the paper's §2.1
	// DELETE-and-INSERT update pattern).
	res, err := e.UpdateContext(t.Context(), "m", testPrologue+`
		DELETE { ?s key:age ?v } INSERT { ?s key:years ?v } WHERE { ?s key:age ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 || res.Inserted != 2 {
		t.Fatalf("modify result: %+v", res)
	}
	if n := countRows(t, e, "m", testPrologue+`SELECT ?s WHERE { ?s key:age ?v }`); n != 0 {
		t.Errorf("old property still present: %d", n)
	}
	if n := countRows(t, e, "m", testPrologue+`SELECT ?s WHERE { ?s key:years ?v }`); n != 2 {
		t.Errorf("new property rows = %d", n)
	}
}

func TestModifyDeleteOnlyTemplate(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	// Delete only the edge-KV quads of the follows edge (GRAPH form).
	res, err := e.UpdateContext(t.Context(), "fig1", testPrologue+`
		DELETE { GRAPH ?g { ?g key:since ?v } } WHERE { GRAPH ?g { ?g key:since ?v } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d", res.Deleted)
	}
	// Topology must be intact.
	if n := countRows(t, e, "fig1", testPrologue+`SELECT ?x WHERE { ?x rel:follows ?y }`); n != 1 {
		t.Error("topology quad lost")
	}
}

func TestModifyWhereEvaluatedBeforeWrites(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	_, err := e.UpdateContext(t.Context(), "m", `INSERT DATA { <http://a> <http://next> <http://b> . <http://b> <http://next> <http://c> }`)
	if err != nil {
		t.Fatal(err)
	}
	// Shift every chain link: the WHERE must see the ORIGINAL state, so
	// exactly 2 hop edges are inserted, not a transitive cascade.
	res, err := e.UpdateContext(t.Context(), "m", `
		INSERT { ?x <http://hop> ?y } WHERE { ?x <http://next> ?y }`)
	if err != nil || res.Inserted != 2 {
		t.Fatalf("modify: %+v, %v", res, err)
	}
}

func TestUpdateRejectsGarbage(t *testing.T) {
	e := NewEngine(store.New())
	for _, bad := range []string{
		`DELETE { ?x <http://p> ?y }`,                     // missing WHERE
		`INSERT { ?x <http://p> ?y } WHEREISH { }`,        // typo
		`DELETE { ?x <http://p>+ ?y } WHERE { ?x ?p ?y }`, // path in template
	} {
		if _, err := e.UpdateContext(t.Context(), "m", bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestModifyInsertIntoNamedGraphTemplate(t *testing.T) {
	st := store.New()
	e := NewEngine(st)
	if _, err := e.UpdateContext(t.Context(), "m", `INSERT DATA { <http://a> <http://p> <http://b> }`); err != nil {
		t.Fatal(err)
	}
	res, err := e.UpdateContext(t.Context(), "m", `
		INSERT { GRAPH <http://g> { ?x <http://p2> ?y } } WHERE { ?x <http://p> ?y }`)
	if err != nil || res.Inserted != 1 {
		t.Fatalf("insert into graph: %+v, %v", res, err)
	}
	if !st.View().Contains("m", rdf.NewQuad(rdf.NewIRI("http://a"), rdf.NewIRI("http://p2"), rdf.NewIRI("http://b"), rdf.NewIRI("http://g"))) {
		t.Error("named-graph quad missing")
	}
}

// TestUpdateFormsAgree: every update form runs as one DELETE/INSERT
// operation, so DELETE DATA, DELETE WHERE and DELETE … WHERE {} of one
// ground quad remove it from every member model of the dataset (a
// model, a virtual model, all models) and report the same result, on a
// loaded store and on one whose quads sit in the delta beside a
// tombstone; INSERT DATA into a virtual model or the all-models dataset
// is refused before the commit hook and creates no model; and a data
// block that repeats a quad inserts it once and journals it once.
func TestUpdateFormsAgree(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	q := rdf.Quad{S: iri("s"), P: iri("p"), O: iri("o")}
	other := rdf.Quad{S: iri("t"), P: iri("p"), O: iri("o")}
	const ground = "<http://x/s> <http://x/p> <http://x/o>"
	forms := []string{
		"DELETE DATA { " + ground + " }",
		"DELETE WHERE { " + ground + " }",
		"DELETE { " + ground + " } WHERE {}",
	}
	models := []string{"a", "b", "c"} // the virtual model v is {a, b}
	newStore := func(t *testing.T, delta bool) *store.Store {
		st := store.New()
		for _, m := range models {
			loaded := []rdf.Quad{q, other}
			if delta {
				loaded = []rdf.Quad{other}
			}
			if _, err := st.Load(m, loaded); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.CreateVirtualModel("v", "a", "b"); err != nil {
			t.Fatal(err)
		}
		if delta {
			// q as delta inserts in every model, other tombstoned in b.
			ops := []store.Op{{Delete: true, Model: "b", Quad: other}}
			for _, m := range models {
				ops = append(ops, store.Op{Model: m, Quad: q})
			}
			if _, _, err := st.Apply(ops); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	members := map[string][]string{"a": {"a"}, "v": {"a", "b"}, "": models}
	for _, delta := range []bool{false, true} {
		for dataset, gone := range members {
			for _, form := range forms {
				st := newStore(t, delta)
				e := NewEngine(st)
				res, err := e.UpdateContext(t.Context(), dataset, form)
				if err != nil {
					t.Fatalf("delta=%v dataset %q: %s: %v", delta, dataset, form, err)
				}
				if want := (UpdateResult{Deleted: len(gone)}); res != want {
					t.Errorf("delta=%v dataset %q: %s = %+v, want %+v", delta, dataset, form, res, want)
				}
				view := st.View()
				for _, m := range models {
					removed := !view.Contains(m, q)
					if want := slices.Contains(gone, m); removed != want {
						t.Errorf("delta=%v dataset %q: %s: q removed from %s = %v, want %v", delta, dataset, form, m, removed, want)
					}
					if kept := view.Contains(m, other); kept != (!delta || m != "b") {
						t.Errorf("delta=%v dataset %q: %s: other quad in %s = %v", delta, dataset, form, m, kept)
					}
				}
			}
		}
	}

	for _, delta := range []bool{false, true} {
		st := newStore(t, delta)
		e := NewEngine(st)
		var hooked [][]Mutation
		e.CommitHook = func(muts []Mutation, apply func() error) error {
			hooked = append(hooked, muts)
			return apply()
		}
		before := st.View().Models()
		for _, dataset := range []string{"v", ""} {
			if res, err := e.UpdateContext(t.Context(), dataset, "INSERT DATA { <http://x/n> <http://x/p> <http://x/o> }"); err == nil {
				t.Errorf("delta=%v: INSERT DATA into %q = %+v, want an error", delta, dataset, res)
			}
		}
		if after := st.View().Models(); !slices.Equal(after, before) || len(hooked) != 0 {
			t.Errorf("delta=%v: refused inserts left models %v (was %v) and %d hook calls", delta, after, before, len(hooked))
		}

		res, err := e.UpdateContext(t.Context(), "a", "INSERT DATA { <http://x/n> <http://x/p> <http://x/o> . <http://x/n> <http://x/p> <http://x/o> }")
		if err != nil || res != (UpdateResult{Inserted: 1}) {
			t.Fatalf("delta=%v: repeated quad: %+v, %v", delta, res, err)
		}
		want := []Mutation{{Insert: true, Model: "a", Quad: rdf.Quad{S: iri("n"), P: iri("p"), O: iri("o")}}}
		if len(hooked) != 1 || !slices.Equal(hooked[0], want) {
			t.Errorf("delta=%v: journaled %v, want one call with %v", delta, hooked, want)
		}
	}
}
