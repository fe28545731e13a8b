package inference

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/guard"
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

// modelQuads returns the quads of one model, sorted by their N-Quads text.
func modelQuads(t *testing.T, st *store.Store, model string) []string {
	t.Helper()
	view := st.View()
	p := store.AnyPattern()
	if p.M = view.LookupModel(model); p.M == store.NoID {
		return nil
	}
	var out []string
	for _, q := range view.Quads(p) {
		out = append(out, q.String())
	}
	sort.Strings(out)
	return out
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
	n, err := e.Run(t.Context(), "", "inf", Options{})
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
	if _, err := e.Run(t.Context(), "", "inf", Options{}); err != nil {
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
	if _, err := e.Run(t.Context(), "", "inf", Options{}); err != nil {
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
	n, err := e.Run(t.Context(), "", "inf", Options{})
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
	if _, err := e.Run(t.Context(), "", "inf", Options{}); err != nil {
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
	n, err := e.Run(t.Context(), "", "inf", Options{})
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
	_, err := e.Run(t.Context(), "", "inf", Options{MaxInferred: 10})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("guard did not trip: %v", err)
	}
	if n := len(modelQuads(t, st, "inf")); n > 10 {
		t.Errorf("destination holds %d triples, want at most MaxInferred = 10", n)
	}
}

// TestParseTermErrors: rule atoms are SPARQL terms, so AddRule refuses
// a bare word (a parse error) and a blank node, and accepts a literal,
// which matches the plain literal it spells.
func TestParseTermErrors(t *testing.T) {
	rule := func(o string) Rule {
		return Rule{Name: "r",
			Body: []TriplePattern{{"?x", "<http://x/p>", o}},
			Head: []TriplePattern{{"?x", "<http://x/q>", "?x"}}}
	}
	st := store.New()
	mustLoad(t, st, "data", rdf.Quad{S: iri("a"), P: iri("p"), O: rdf.NewLiteral("lit")})
	e := New(st)
	if err := e.AddRule(rule("plainword")); err == nil {
		t.Error("bare word accepted as term")
	}
	if err := e.AddRule(rule("_:b1")); err == nil {
		t.Error("blank node accepted as term")
	}
	if err := e.AddRule(rule("?y . ?y <http://x/p> ?z")); err == nil {
		t.Error("atom holding two triples accepted")
	}
	if err := e.AddRule(rule(`"lit"`)); err != nil {
		t.Fatalf("literal refused: %v", err)
	}
	if n, err := e.Run(t.Context(), "", "inf", Options{}); err != nil || n != 1 || !contains(st, "inf", triple("a", "q", "a")) {
		t.Errorf("literal atom: n=%d err=%v, want a q a inferred", n, err)
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
	n, err := e.Run(t.Context(), "", "inf", Options{})
	if err != nil || n != 0 {
		t.Errorf("n=%d err=%v", n, err)
	}
}

func TestRunCanceled(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data", triple("a", "p", "b"),
		rdf.Quad{S: iri("p"), P: rdf.NewIRI(rdf.RDFSSubPropertyOf), O: iri("q")})
	e := New(st)
	for _, r := range RDFSRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := e.Run(ctx, "", "inf", Options{}); !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("err = %v, want guard.ErrCanceled", err)
	}
	if got := modelQuads(t, st, "inf"); len(got) != 0 {
		t.Errorf("a canceled run asserted %v", got)
	}
}

func TestRunRefusesDatasetWithoutDestination(t *testing.T) {
	st := store.New()
	mustLoad(t, st, "data", triple("a", "p", "b"),
		rdf.Quad{S: iri("p"), P: rdf.NewIRI(rdf.RDFSSubPropertyOf), O: iri("q")})
	e := New(st)
	for _, r := range RDFSRules() {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Run(t.Context(), "data", "inf", Options{})
	if err == nil || !strings.Contains(err.Error(), `"data"`) || !strings.Contains(err.Error(), `"inf"`) {
		t.Fatalf("err = %v, want a refusal naming both models", err)
	}
	// A virtual model over the source and the destination is accepted.
	st.Model("inf")
	if err := st.CreateVirtualModel("both", "data", "inf"); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Run(t.Context(), "both", "inf", Options{}); err != nil || n != 1 {
		t.Errorf("n=%d err=%v, want 1 inferred", n, err)
	}
}

// TestRunMatchesNaiveClosure compares Run with naiveClosure, a
// nested-loop fixpoint over a quad slice, on seeded small graphs that
// hold sameAs cycles, subPropertyOf chains, inverse and transitive
// properties, literal objects, named graphs, and a model outside the
// dataset whose quads must neither match nor block a rule.
func TestRunMatchesNaiveClosure(t *testing.T) {
	rules := append(RDFSRules(), OWLRules()...)
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			data, other := closureFixture(seed)
			st := store.New()
			mustLoad(t, st, "data", data...)
			mustLoad(t, st, "other", other...)
			st.Model("inf")
			if err := st.CreateVirtualModel("vm", "data", "inf"); err != nil {
				t.Fatal(err)
			}
			e := New(st)
			for _, r := range rules {
				if err := e.AddRule(r); err != nil {
					t.Fatal(err)
				}
			}
			n, err := e.Run(t.Context(), "vm", "inf", Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, q := range naiveClosure(data, rules) {
				want = append(want, q.String())
			}
			sort.Strings(want)
			if got := modelQuads(t, st, "inf"); !slices.Equal(got, want) {
				t.Errorf("inferred model differs from the naive closure\ngot  %d: %v\nwant %d: %v", len(got), got, len(want), want)
			}
			if n != len(want) {
				t.Errorf("Run reported %d inferred, naive closure has %d", n, len(want))
			}
		})
	}
}

// closureFixture returns a seeded graph for the "data" model and one
// for a model outside the dataset.
func closureFixture(seed int64) (data, other []rdf.Quad) {
	rng := rand.New(rand.NewSource(seed))
	node := func() rdf.Term { return iri(fmt.Sprintf("n%d", rng.Intn(6))) }
	pred := func() rdf.Term { return iri(fmt.Sprintf("p%d", rng.Intn(4))) }
	q := func(s, p, o rdf.Term) rdf.Quad { return rdf.Quad{S: s, P: p, O: o} }
	sameAs, sub, inv := rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI(rdf.RDFSSubPropertyOf), rdf.NewIRI(rdf.OWLInverseOf)
	typ := rdf.NewIRI(rdf.RDFType)
	data = []rdf.Quad{
		q(iri("n0"), sameAs, iri("n1")), q(iri("n1"), sameAs, iri("n0")), // a 2-cycle
		q(iri("p0"), sub, iri("p1")), q(iri("p1"), sub, iri("p2")), // a chain
		q(iri("p3"), inv, iri("p1")),
		q(iri("p2"), typ, rdf.NewIRI(rdf.OWLTransitiveProperty)),
		q(iri("p3"), rdf.NewIRI(rdf.RDFSRange), iri("C")),
		q(iri("C"), rdf.NewIRI(rdf.RDFSSubClassOf), iri("D")),
		q(node(), iri("label"), rdf.NewLiteral(fmt.Sprint("lit", seed))),
		q(node(), sameAs, rdf.NewLiteral("same")),               // symmetry yields a literal subject: dropped
		q(iri("label"), rdf.NewIRI(rdf.RDFSRange), iri("Text")), // a literal typed: dropped
	}
	for i := 0; i < 8; i++ {
		e := q(node(), pred(), node())
		if i%3 == 0 {
			e.G = iri(fmt.Sprintf("g%d", i))
		}
		data = append(data, e)
	}
	if seed%2 == 0 {
		data = append(data, q(iri("n2"), sameAs, iri("n3")), q(iri("n3"), sameAs, iri("n2")))
	}
	for i := 0; i < 4; i++ {
		other = append(other, q(node(), pred(), node()))
	}
	other = append(other, q(iri("p0"), sub, iri("p3")), q(iri("n4"), sameAs, iri("n5")))
	return data, other
}

// naiveClosure is the reference for Run: it matches each rule body by
// nested loops over every triple derived so far, in any graph, and
// repeats until a round derives nothing. It returns the triples not
// already in quads, in the default graph. Rule atoms are read as IRIs
// or variables, the only atoms RDFSRules and OWLRules use.
func naiveClosure(quads []rdf.Quad, rules []Rule) []rdf.Quad {
	var facts []rdf.Quad
	known := map[rdf.Quad]bool{}
	add := func(q rdf.Quad) bool {
		q.G = rdf.Term{}
		if known[q] || q.Validate() != nil {
			return false
		}
		known[q] = true
		facts = append(facts, q)
		return true
	}
	for _, q := range quads {
		add(q)
	}
	asserted := len(facts)
	term := func(a string, b map[string]rdf.Term) rdf.Term {
		if isVar(a) {
			return b[a]
		}
		return rdf.NewIRI(strings.TrimSuffix(strings.TrimPrefix(a, "<"), ">"))
	}
	var match func(body []TriplePattern, b map[string]rdf.Term, emit func(map[string]rdf.Term))
	match = func(body []TriplePattern, b map[string]rdf.Term, emit func(map[string]rdf.Term)) {
		if len(body) == 0 {
			emit(b)
			return
		}
		a := body[0]
		for _, f := range facts {
			nb := maps.Clone(b)
			ok := true
			for _, pos := range [3]struct {
				atom string
				val  rdf.Term
			}{{a.S, f.S}, {a.P, f.P}, {a.O, f.O}} {
				if !isVar(pos.atom) {
					ok = ok && term(pos.atom, nil) == pos.val
				} else if prev, bound := nb[pos.atom]; bound {
					ok = ok && prev == pos.val
				} else {
					nb[pos.atom] = pos.val
				}
			}
			if ok {
				match(body[1:], nb, emit)
			}
		}
	}
	for {
		var derived []rdf.Quad
		for _, r := range rules {
			match(r.Body, map[string]rdf.Term{}, func(b map[string]rdf.Term) {
				for _, h := range r.Head {
					derived = append(derived, rdf.Quad{S: term(h.S, b), P: term(h.P, b), O: term(h.O, b)})
				}
			})
		}
		grew := false
		for _, q := range derived {
			grew = add(q) || grew
		}
		if !grew {
			return facts[asserted:]
		}
	}
}
