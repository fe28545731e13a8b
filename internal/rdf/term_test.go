package rdf

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("http://pg/v1")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() || !iri.IsResource() {
		t.Fatalf("IRI kind predicates wrong: %+v", iri)
	}
	b := NewBlank("b0")
	if !b.IsBlank() || !b.IsResource() {
		t.Fatalf("blank kind predicates wrong: %+v", b)
	}
	l := NewLiteral("Amy")
	if !l.IsLiteral() || l.IsResource() {
		t.Fatalf("literal kind predicates wrong: %+v", l)
	}
	var zero Term
	if !zero.IsZero() || zero.IsResource() || zero.IsLiteral() {
		t.Fatalf("zero term predicates wrong")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://pg/v1"), "<http://pg/v1>"},
		{NewBlank("b0"), "_:b0"},
		{NewLiteral("Amy"), `"Amy"`},
		{NewInt(23), `"23"^^<http://www.w3.org/2001/XMLSchema#int>`},
		{NewInteger(2007), `"2007"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewBoolean(true), `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{NewLangLiteral("train", "EN-US"), `"train"@en-us`},
		{NewLiteral("a\"b\\c\nd\te\r"), `"a\"b\\c\nd\te\r"`},
		{NewTypedLiteral("x", XSDString), `"x"`},               // xsd:string collapses to plain
		{NewLiteral("caf\xe9 \u00e9"), "\"caf\uFFFD \u00e9\""}, // invalid UTF-8 renders as U+FFFD
		{Term{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
		if got := string(c.term.AppendTo([]byte("x"))); got != "x"+c.want {
			t.Errorf("AppendTo(%+v) = %q, want %q", c.term, got, "x"+c.want)
		}
	}
}

func TestTermEqual(t *testing.T) {
	if !NewLiteral("x").Equal(NewTypedLiteral("x", XSDString)) {
		t.Error("plain literal should equal explicit xsd:string literal")
	}
	if NewLiteral("x").Equal(NewTypedLiteral("x", XSDInteger)) {
		t.Error("different datatypes should not be equal")
	}
	if NewIRI("a").Equal(NewBlank("a")) {
		t.Error("IRI should not equal blank node with same value")
	}
	if !NewLangLiteral("x", "EN").Equal(NewLangLiteral("x", "en")) {
		t.Error("language tags are case-insensitive")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	terms := []Term{
		NewBlank("a"), NewBlank("b"),
		NewIRI("http://a"), NewIRI("http://b"),
		NewLangLiteral("a", "en"), NewTypedLiteral("a", XSDInteger), NewLiteral("a"),
	}
	for i, a := range terms {
		for j, b := range terms {
			got := Compare(a, b)
			switch {
			case i == j && got != 0:
				t.Errorf("Compare(%s,%s)=%d want 0", a, b, got)
			case i < j && got >= 0:
				t.Errorf("Compare(%s,%s)=%d want <0", a, b, got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s,%s)=%d want >0", a, b, got)
			}
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(av, bv string, ak, bk uint8) bool {
		a := Term{Kind: TermKind(ak%3 + 1), Value: av}
		b := Term{Kind: TermKind(bk%3 + 1), Value: bv}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadValidate(t *testing.T) {
	v1, follows, v2 := NewIRI("http://pg/v1"), NewIRI(RelNS+"follows"), NewIRI("http://pg/v2")
	ok := NewQuad(v1, follows, v2, NewIRI("http://pg/e3"))
	if err := ok.Validate(); err != nil {
		t.Errorf("valid quad rejected: %v", err)
	}
	if err := NewQuad(NewLiteral("x"), follows, v2, Term{}).Validate(); err == nil {
		t.Error("literal subject accepted")
	}
	if err := NewQuad(v1, NewBlank("p"), v2, Term{}).Validate(); err == nil {
		t.Error("blank predicate accepted")
	}
	if err := NewQuad(v1, follows, Term{}, Term{}).Validate(); err == nil {
		t.Error("missing object accepted")
	}
	if err := NewQuad(v1, follows, v2, NewLiteral("g")).Validate(); err == nil {
		t.Error("literal graph accepted")
	}
}

func TestQuadString(t *testing.T) {
	q := NewQuad(NewIRI("http://pg/v1"), NewIRI(RelNS+"follows"), NewIRI("http://pg/v2"), NewIRI("http://pg/e3"))
	want := "<http://pg/v1> <http://pg/r/follows> <http://pg/v2> <http://pg/e3>"
	if q.String() != want {
		t.Errorf("got %q want %q", q.String(), want)
	}
	q.G = Term{}
	want = "<http://pg/v1> <http://pg/r/follows> <http://pg/v2>"
	if q.String() != want {
		t.Errorf("got %q want %q", q.String(), want)
	}
}

func TestCompareQuadsSortStable(t *testing.T) {
	quads := []Quad{
		TripleQuad(NewTriple(NewIRI("b"), NewIRI("p"), NewIRI("o"))),
		TripleQuad(NewTriple(NewIRI("a"), NewIRI("p"), NewIRI("o"))),
		NewQuad(NewIRI("a"), NewIRI("p"), NewIRI("o"), NewIRI("g")),
	}
	sort.Slice(quads, func(i, j int) bool { return CompareQuads(quads[i], quads[j]) < 0 })
	if !quads[0].S.Equal(NewIRI("a")) || !quads[0].InDefaultGraph() {
		t.Errorf("default graph should sort first: %v", quads)
	}
	if !quads[2].G.Equal(NewIRI("g")) {
		t.Errorf("named graph should sort last: %v", quads)
	}
}

func TestPrefixMap(t *testing.T) {
	p := StandardPrefixes()
	if got := p.Shorten(RelNS + "follows"); got != "rel:follows" && got != "r:follows" {
		t.Errorf("Shorten = %q", got)
	}
	if got := p.Shorten("http://unknown/x"); got != "<http://unknown/x>" {
		t.Errorf("Shorten unknown = %q", got)
	}
	iri, ok := p.Expand("rdf:type")
	if !ok || iri != RDFType {
		t.Errorf("Expand rdf:type = %q, %v", iri, ok)
	}
	if _, ok := p.Expand("nope:x"); ok {
		t.Error("unknown prefix expanded")
	}
	if _, ok := p.Expand("nocolon"); ok {
		t.Error("name without colon expanded")
	}
}

func TestDatatypeIRIDefaulting(t *testing.T) {
	if NewLiteral("x").DatatypeIRI() != XSDString {
		t.Error("plain literal should default to xsd:string")
	}
	if NewLangLiteral("x", "en").DatatypeIRI() != RDFLangString {
		t.Error("lang literal should be rdf:langString")
	}
	if NewIRI("x").DatatypeIRI() != "" {
		t.Error("IRI has no datatype")
	}
}
