package inference

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func triple(s, p, o string) rdf.Quad {
	return rdf.Quad{S: iri(s), P: iri(p), O: iri(o)}
}

func mustLoad(t *testing.T, st *store.Store, model string, quads ...rdf.Quad) {
	t.Helper()
	if _, err := st.Load(model, quads); err != nil {
		t.Fatal(err)
	}
}

func contains(st *store.Store, model string, q rdf.Quad) bool {
	return st.View().Contains(model, q)
}

func TestRuleValidation(t *testing.T) {
	ok := Rule{Name: "ok",
		Body: []TriplePattern{{"?x", "<http://p>", "?y"}},
		Head: []TriplePattern{{"?y", "<http://q>", "?x"}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	bad := Rule{Name: "unbound",
		Body: []TriplePattern{{"?x", "<http://p>", "?y"}},
		Head: []TriplePattern{{"?z", "<http://q>", "?x"}}}
	if err := bad.Validate(); err == nil {
		t.Error("rule with unbound head var accepted")
	}
	if err := (Rule{Name: "empty"}).Validate(); err == nil {
		t.Error("empty rule accepted")
	}
	e := New(store.New())
	if err := e.AddRule(bad); err == nil {
		t.Error("AddRule accepted invalid rule")
	}
}

func TestSubPropertyEntailment(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data",
		triple("amy", "follows", "mira"),
		rdf.Quad{S: iri("follows"), P: rdf.NewIRI(rdf.RDFSSubPropertyOf), O: iri("connectedTo")},
		rdf.Quad{S: iri("connectedTo"), P: rdf.NewIRI(rdf.RDFSSubPropertyOf), O: iri("related")},
	)
	e := New(st)
	for _, r := range RDFSRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.Run("data", "inf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing inferred")
	}
	if !contains(st, "inf", triple("amy", "connectedTo", "mira")) {
		t.Error("direct subproperty entailment missing")
	}
	if !contains(st, "inf", triple("amy", "related", "mira")) {
		t.Error("transitive subproperty entailment missing")
	}
}

func TestClassDomainRangeEntailment(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data",
		rdf.Quad{S: iri("tampa"), P: rdf.NewIRI(rdf.RDFType), O: iri("Port")},
		rdf.Quad{S: iri("Port"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: iri("Place")},
		rdf.Quad{S: iri("Place"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: iri("Thing")},
		triple("usa", "hasPort", "tampa"),
		rdf.Quad{S: iri("hasPort"), P: rdf.NewIRI(rdf.RDFSDomain), O: iri("Country")},
		rdf.Quad{S: iri("hasPort"), P: rdf.NewIRI(rdf.RDFSRange), O: iri("Port")},
	)
	e := New(st)
	for _, r := range RDFSRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run("data", "inf", Options{}); err != nil {
		t.Fatal(err)
	}
	typ := rdf.NewIRI(rdf.RDFType)
	for _, want := range []rdf.Quad{
		{S: iri("tampa"), P: typ, O: iri("Place")},
		{S: iri("tampa"), P: typ, O: iri("Thing")},
		{S: iri("usa"), P: typ, O: iri("Country")},
	} {
		if !contains(st, "inf", want) {
			t.Errorf("missing entailment %s", want)
		}
	}
}

func TestSameAsAndEquivalentProperty(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data",
		rdf.Quad{S: iri("kw_train"), P: rdf.NewIRI(rdf.OWLSameAs), O: iri("wn_train")},
		triple("wn_train", "senseLabel", "trainSense"),
		rdf.Quad{S: iri("hasTag"), P: rdf.NewIRI(rdf.OWLEquivalentProperty), O: iri("taggedWith")},
		triple("n1", "hasTag", "kw_train"),
	)
	e := New(st)
	for _, r := range append(RDFSRules(), OWLRules()...) {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run("data", "inf", Options{}); err != nil {
		t.Fatal(err)
	}
	if !contains(st, "inf", rdf.Quad{S: iri("wn_train"), P: rdf.NewIRI(rdf.OWLSameAs), O: iri("kw_train")}) {
		t.Error("sameAs symmetry missing")
	}
	if !contains(st, "inf", triple("kw_train", "senseLabel", "trainSense")) {
		t.Error("sameAs substitution missing")
	}
	if !contains(st, "inf", triple("n1", "taggedWith", "kw_train")) {
		t.Error("equivalentProperty entailment missing")
	}
}

// TestUserDefinedPropertyChain reproduces the §5.2 Fact Book example:
// infer :hasTagR linking a node with a #Tampa tag to countries
// neighboring Tampa's country via a property chain.
func TestUserDefinedPropertyChain(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data",
		triple("node7", "hasTag", "tagTampa"),
		triple("tagTampa", "denotes", "tampa"),
		triple("usa", "ports", "tampa"),
		triple("usa", "nbr", "mexico"),
		triple("usa", "nbr", "canada"),
	)
	e := New(st)
	err := e.AddRule(Rule{
		Name: "hasTagR-via-ports-and-neighbors",
		Body: []TriplePattern{
			{"?n", "<http://x/hasTag>", "?t"},
			{"?t", "<http://x/denotes>", "?city"},
			{"?c", "<http://x/ports>", "?city"},
			{"?c", "<http://x/nbr>", "?other"},
		},
		Head: []TriplePattern{{"?n", "<http://x/hasTagR>", "?other"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.Run("data", "inf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("inferred %d, want 2", n)
	}
	if !contains(st, "inf", triple("node7", "hasTagR", "mexico")) ||
		!contains(st, "inf", triple("node7", "hasTagR", "canada")) {
		t.Error("hasTagR entailments missing")
	}
}

func TestInverseAndTransitive(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data",
		rdf.Quad{S: iri("partOf"), P: rdf.NewIRI(rdf.OWLInverseOf), O: iri("contains")},
		rdf.Quad{S: iri("partOf"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(rdf.OWLTransitiveProperty)},
		triple("a", "partOf", "b"),
		triple("b", "partOf", "c"),
	)
	e := New(st)
	for _, r := range OWLRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run("data", "inf", Options{}); err != nil {
		t.Fatal(err)
	}
	if !contains(st, "inf", triple("a", "partOf", "c")) {
		t.Error("transitivity missing")
	}
	if !contains(st, "inf", triple("b", "contains", "a")) {
		t.Error("inverse missing")
	}
	if !contains(st, "inf", triple("c", "contains", "a")) {
		t.Error("inverse of inferred triple missing (rules must chain)")
	}
}

func TestFixpointTerminatesOnCycles(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data",
		rdf.Quad{S: iri("a"), P: rdf.NewIRI(rdf.OWLSameAs), O: iri("b")},
		rdf.Quad{S: iri("b"), P: rdf.NewIRI(rdf.OWLSameAs), O: iri("c")},
		rdf.Quad{S: iri("c"), P: rdf.NewIRI(rdf.OWLSameAs), O: iri("a")},
	)
	e := New(st)
	for _, r := range OWLRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.Run("data", "inf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sameAs closure over {a,b,c}: all 9 pairs minus 3 asserted = 6.
	if n != 6 {
		t.Errorf("inferred %d, want 6", n)
	}
}

func TestMaxInferredGuard(t *testing.T) {
	st := store.New()
	var quads []rdf.Quad
	for i := 0; i < 20; i++ {
		quads = append(quads, rdf.Quad{S: iri(fmt.Sprintf("n%d", i)), P: rdf.NewIRI(rdf.OWLSameAs), O: iri(fmt.Sprintf("n%d", i+1))})
	}
	mustLoad(t, st, "data", quads...)
	e := New(st)
	for _, r := range OWLRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Run("data", "inf", Options{MaxInferred: 10})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("guard did not trip: %v", err)
	}
}

func TestParseTermErrors(t *testing.T) {
	if _, err := parseTerm("plainword"); err == nil {
		t.Error("bare word accepted as term")
	}
	if term, err := parseTerm(`"lit"`); err != nil || !term.Equal(rdf.NewLiteral("lit")) {
		t.Errorf("literal: %v %v", term, err)
	}
	if term, err := parseTerm("_:b1"); err != nil || !term.Equal(rdf.NewBlank("b1")) {
		t.Errorf("blank: %v %v", term, err)
	}
}

func TestAbsentConstantIsNoMatch(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data", triple("a", "p", "b"))
	e := New(st)
	if err := e.AddRule(Rule{Name: "r",
		Body: []TriplePattern{{"?x", "<http://never/seen>", "?y"}},
		Head: []TriplePattern{{"?y", "<http://x/q>", "?x"}}}); err != nil {
		t.Fatal(err)
	}
	n, err := e.Run("data", "inf", Options{})
	if err != nil || n != 0 {
		t.Errorf("n=%d err=%v", n, err)
	}
}
