package sparql

import (
	"sort"
	"testing"

	"repro/internal/rdf"
)

// execForm runs q on the all-models dataset through ExecContext and
// fails the test when the answer is not tagged with the form want.
func execForm(t *testing.T, e *Engine, want QueryForm, q string) (Answer, error) {
	t.Helper()
	ans, err := e.ExecContext(t.Context(), "", q)
	if err == nil && ans.Form != want {
		t.Fatalf("answer form = %v, want %v", ans.Form, want)
	}
	return ans, err
}

func askQuery(t *testing.T, e *Engine, q string) (bool, error) {
	t.Helper()
	ans, err := execForm(t, e, FormAsk, q)
	return ans.Boolean, err
}

func constructQuery(t *testing.T, e *Engine, q string) ([]rdf.Quad, error) {
	t.Helper()
	ans, err := execForm(t, e, FormConstruct, q)
	return ans.Quads, err
}

func describeQuery(t *testing.T, e *Engine, q string) ([]rdf.Quad, error) {
	t.Helper()
	ans, err := execForm(t, e, FormDescribe, q)
	return ans.Quads, err
}

func TestAskQuery(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	yes, err := askQuery(t, e, testPrologue+`ASK { ?x rel:follows ?y }`)
	if err != nil || !yes {
		t.Fatalf("ask follows = %v, %v", yes, err)
	}
	no, err := askQuery(t, e, testPrologue+`ASK WHERE { ?x rel:blocks ?y }`)
	if err != nil || no {
		t.Fatalf("ask blocks = %v, %v", no, err)
	}
	// All-constant pattern (no variables at all).
	yes, err = askQuery(t, e, testPrologue+`ASK { <http://pg/v1> rel:follows <http://pg/v2> }`)
	if err != nil || !yes {
		t.Fatalf("constant ask = %v, %v", yes, err)
	}
	// Ask with a filter.
	yes, err = askQuery(t, e, testPrologue+`ASK { ?x key:age ?a FILTER (?a > 100) }`)
	if err != nil || yes {
		t.Fatalf("filtered ask = %v, %v", yes, err)
	}
	// ExecContext runs a text by the form it parses as.
	if ans, err := e.ExecContext(t.Context(), "", `SELECT ?x WHERE { ?x ?p ?y }`); err != nil || ans.Form != FormSelect || ans.Results == nil {
		t.Errorf("SELECT through ExecContext = %+v, %v", ans, err)
	}
	if _, err := e.QueryContext(t.Context(), "", testPrologue+`ASK { ?x ?p ?y }`); err == nil {
		t.Error("Query accepted an ASK query")
	}
}

func TestConstructQuery(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	quads, err := constructQuery(t, e, testPrologue+`
		CONSTRUCT { ?y <http://x/followedBy> ?x . ?x <http://x/active> true }
		WHERE { ?x rel:follows ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(quads) != 2 {
		t.Fatalf("constructed %d quads: %v", len(quads), quads)
	}
	sort.Slice(quads, func(i, j int) bool { return rdf.CompareQuads(quads[i], quads[j]) < 0 })
	if quads[0].P.Value != "http://x/active" || quads[1].P.Value != "http://x/followedBy" {
		t.Errorf("quads = %v", quads)
	}
	if !quads[1].S.Equal(rdf.NewIRI("http://pg/v2")) {
		t.Errorf("inverted edge wrong: %v", quads[1])
	}
}

func TestConstructWithGraphTemplate(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	quads, err := constructQuery(t, e, testPrologue+`
		CONSTRUCT { GRAPH ?g { ?x <http://x/inEdgeGraph> ?y } }
		WHERE { GRAPH ?g { ?x rel:follows ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(quads) != 1 || !quads[0].G.Equal(rdf.NewIRI("http://pg/e3")) {
		t.Fatalf("graph template quads = %v", quads)
	}
}

func TestConstructSkipsInvalidAndUnbound(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	// ?v is a literal: binding it into subject position is invalid and
	// must be skipped; ?unbound is never bound.
	quads, err := constructQuery(t, e, testPrologue+`
		CONSTRUCT { ?v <http://x/p> ?x . ?x <http://x/q> ?unbound . ?x <http://x/ok> ?v }
		WHERE { ?x key:name ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range quads {
		if q.P.Value != "http://x/ok" {
			t.Errorf("unexpected quad survived: %v", q)
		}
	}
	if len(quads) != 2 {
		t.Errorf("quads = %v", quads)
	}
}

func TestConstructDeduplicates(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	// Two solutions (follows + knows) produce the same template quad.
	quads, err := constructQuery(t, e, testPrologue+`
		CONSTRUCT { ?x <http://x/connected> ?y } WHERE { ?x ?p ?y FILTER (isIRI(?y)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(quads) != 1 {
		t.Fatalf("expected 1 deduplicated quad, got %v", quads)
	}
}

// TestConstructRoundTripsNGtoSP converts an NG dataset to SP triples
// with CONSTRUCT — the kind of scheme migration the models enable.
func TestConstructRoundTripsNGtoSP(t *testing.T) {
	st := fig1Store(t)
	e := NewEngine(st)
	quads, err := constructQuery(t, e, testPrologue+`
		CONSTRUCT {
			?x ?g ?y .
			?g rdfs:subPropertyOf rel:follows .
			?x rel:follows ?y
		}
		WHERE { GRAPH ?g { ?x rel:follows ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(quads) != 3 {
		t.Fatalf("migration quads = %v", quads)
	}
	// The migrated triples must contain the SP anchor form.
	found := false
	for _, q := range quads {
		if q.P.Value == "http://pg/e3" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing -s-e-o anchor in %v", quads)
	}
}
