// Package inference implements a forward-chaining rule engine over the
// quad store, covering the capabilities §5.2 of the paper uses to enrich
// transformed property-graph data:
//
//   - an RDFS subset (rdfs:subPropertyOf, rdfs:subClassOf, rdfs:domain,
//     rdfs:range entailment),
//   - owl:sameAs and owl:equivalentProperty handling for linked-data
//     integration,
//   - user-defined rules (the paper's example: inferring a :hasTagR
//     property that links nodes directly to neighboring countries via a
//     property chain over Fact Book data).
//
// Entailment is pre-computed into a separate "inferred" semantic model,
// mirroring Oracle's native inference engine, and queried through a
// virtual model that unions asserted and inferred data.
//
// The engine has no matcher of its own: each head atom of a rule runs as
// a SPARQL CONSTRUCT query through the sparql package's executor, and
// each round's new triples are asserted with one store.Apply, so a
// reader sees a round entirely or not at all.
package inference

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TriplePattern is a rule atom: each position holds a SPARQL term — an
// IRI (<iri>), a literal ("literal") or a variable (?name).
type TriplePattern struct {
	S, P, O string
}

func (a TriplePattern) text() string { return a.S + " " + a.P + " " + a.O }

// Rule is a user-defined rule: when every body atom matches, the head
// atoms are instantiated and asserted.
type Rule struct {
	Name string
	Body []TriplePattern
	Head []TriplePattern
}

// Validate checks that the rule has a body and a head, that head
// variables appear in the body and that no atom is a blank node: in a
// SPARQL pattern a blank node acts as a variable, and in a template it
// is a fresh node per match, never the constant a rule would mean.
func (r Rule) Validate() error {
	if len(r.Body) == 0 || len(r.Head) == 0 {
		return fmt.Errorf("inference: rule %q must have a body and a head", r.Name)
	}
	bound := map[string]bool{}
	for i, a := range append(slices.Clone(r.Body), r.Head...) {
		for _, pos := range []string{a.S, a.P, a.O} {
			switch {
			case strings.HasPrefix(pos, "_:"):
				return fmt.Errorf("inference: rule %q: blank node atom %s (use <iri>, \"literal\" or ?var)", r.Name, pos)
			case i < len(r.Body):
				bound[pos] = true
			case isVar(pos) && !bound[pos]:
				return fmt.Errorf("inference: rule %q: head variable %s not bound in body", r.Name, pos)
			}
		}
	}
	return nil
}

func isVar(s string) bool { return len(s) > 1 && s[0] == '?' }

// Engine runs forward chaining over a dataset.
type Engine struct {
	st      *store.Store
	sparql  *sparql.Engine
	queries []string // one CONSTRUCT per head atom of each rule
}

// New returns an engine over the store.
func New(st *store.Store) *Engine { return &Engine{st: st, sparql: sparql.NewEngine(st)} }

// AddRule registers a user-defined rule, compiling each head atom h into
// CONSTRUCT { h } WHERE { body FILTER NOT EXISTS { h } }: a match whose
// triple the dataset already holds, in any graph, asserts nothing. An
// atom that is not one SPARQL term fails here, as a parse error.
func (e *Engine) AddRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	body := ""
	for _, a := range r.Body {
		body += a.text() + " . "
	}
	queries := make([]string, len(r.Head))
	for i, h := range r.Head {
		queries[i] = "CONSTRUCT { " + h.text() + " } WHERE { " + body + "FILTER NOT EXISTS { " + h.text() + " } }"
		q, err := sparql.Parse(queries[i])
		if err != nil {
			return fmt.Errorf("inference: rule %q: %w", r.Name, err)
		}
		if len(q.Template) != 1 || len(q.Select.Where.Elems) != len(r.Body)+1 {
			return fmt.Errorf("inference: rule %q: an atom position holds more than one term", r.Name)
		}
	}
	e.queries = append(e.queries, queries...)
	return nil
}

// RDFSRules returns the RDFS subset rules (property and class hierarchy,
// domain, range) as user-defined rules over the engine's rule language.
func RDFSRules() []Rule {
	sub := "<" + rdf.RDFSSubPropertyOf + ">"
	subC := "<" + rdf.RDFSSubClassOf + ">"
	typ := "<" + rdf.RDFType + ">"
	dom := "<" + rdf.RDFSDomain + ">"
	rng := "<" + rdf.RDFSRange + ">"
	return []Rule{
		{Name: "rdfs-subPropertyOf-transitivity",
			Body: []TriplePattern{{"?p", sub, "?q"}, {"?q", sub, "?r"}},
			Head: []TriplePattern{{"?p", sub, "?r"}}},
		{Name: "rdfs-subPropertyOf-usage",
			Body: []TriplePattern{{"?s", "?p", "?o"}, {"?p", sub, "?q"}},
			Head: []TriplePattern{{"?s", "?q", "?o"}}},
		{Name: "rdfs-subClassOf-transitivity",
			Body: []TriplePattern{{"?c", subC, "?d"}, {"?d", subC, "?e"}},
			Head: []TriplePattern{{"?c", subC, "?e"}}},
		{Name: "rdfs-subClassOf-usage",
			Body: []TriplePattern{{"?x", typ, "?c"}, {"?c", subC, "?d"}},
			Head: []TriplePattern{{"?x", typ, "?d"}}},
		{Name: "rdfs-domain",
			Body: []TriplePattern{{"?s", "?p", "?o"}, {"?p", dom, "?c"}},
			Head: []TriplePattern{{"?s", typ, "?c"}}},
		{Name: "rdfs-range",
			Body: []TriplePattern{{"?s", "?p", "?o"}, {"?p", rng, "?c"}},
			Head: []TriplePattern{{"?o", typ, "?c"}}},
	}
}

// OWLRules returns the owl:sameAs / owl:equivalentProperty /
// owl:inverseOf / transitive-property subset used by the linked-data
// examples.
func OWLRules() []Rule {
	same := "<" + rdf.OWLSameAs + ">"
	eqp := "<" + rdf.OWLEquivalentProperty + ">"
	sub := "<" + rdf.RDFSSubPropertyOf + ">"
	inv := "<" + rdf.OWLInverseOf + ">"
	typ := "<" + rdf.RDFType + ">"
	trans := "<" + rdf.OWLTransitiveProperty + ">"
	return []Rule{
		{Name: "owl-sameAs-symmetry",
			Body: []TriplePattern{{"?x", same, "?y"}},
			Head: []TriplePattern{{"?y", same, "?x"}}},
		{Name: "owl-sameAs-transitivity",
			Body: []TriplePattern{{"?x", same, "?y"}, {"?y", same, "?z"}},
			Head: []TriplePattern{{"?x", same, "?z"}}},
		{Name: "owl-sameAs-subject-substitution",
			Body: []TriplePattern{{"?x", same, "?y"}, {"?x", "?p", "?o"}},
			Head: []TriplePattern{{"?y", "?p", "?o"}}},
		{Name: "owl-sameAs-object-substitution",
			Body: []TriplePattern{{"?x", same, "?y"}, {"?s", "?p", "?x"}},
			Head: []TriplePattern{{"?s", "?p", "?y"}}},
		{Name: "owl-equivalentProperty-forward",
			Body: []TriplePattern{{"?p", eqp, "?q"}},
			Head: []TriplePattern{{"?p", sub, "?q"}, {"?q", sub, "?p"}}},
		{Name: "owl-inverseOf",
			Body: []TriplePattern{{"?p", inv, "?q"}, {"?s", "?p", "?o"}},
			Head: []TriplePattern{{"?o", "?q", "?s"}}},
		{Name: "owl-transitive-property",
			Body: []TriplePattern{{"?p", typ, trans}, {"?x", "?p", "?y"}, {"?y", "?p", "?z"}},
			Head: []TriplePattern{{"?x", "?p", "?z"}}},
	}
}

// Options configure a Run.
type Options struct {
	// MaxRounds bounds fixpoint iteration (0 = default 64).
	MaxRounds int
	// MaxInferred bounds the number of inferred triples (0 = 10M), a
	// guard against runaway rule sets.
	MaxInferred int
}

// Run computes the fixpoint of the registered rules over dataset (a
// model or virtual model; "" = every model), asserting new triples into
// the default graph of model dst. It returns the number of triples
// inferred. The dataset must include dst, so that rules chain: Run
// refuses one that does not. A round runs every rule's queries, then
// asserts the union of their triples with one store.Apply; a round that
// adds nothing ends the run. ctx cancels it between and within queries.
func (e *Engine) Run(ctx context.Context, dataset, dst string, opts Options) (int, error) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64
	}
	maxInferred := opts.MaxInferred
	if maxInferred == 0 {
		maxInferred = 10_000_000
	}
	view := e.st.View()
	ids, err := view.ResolveDataset(dataset)
	if err != nil {
		return 0, err
	}
	if dataset != "" && !slices.Contains(ids, view.LookupModel(dst)) {
		return 0, fmt.Errorf("inference: dataset %q does not include destination model %q", dataset, dst)
	}

	total := 0
	for round := 0; round < maxRounds; round++ {
		var ops []store.Op
		seen := make(map[rdf.Quad]struct{})
		for _, query := range e.queries {
			ans, err := e.sparql.ExecContext(ctx, dataset, query)
			if err != nil {
				return total, err
			}
			for _, q := range ans.Quads {
				if _, dup := seen[q]; !dup {
					seen[q] = struct{}{}
					ops = append(ops, store.Op{Model: dst, Quad: q})
				}
			}
		}
		if len(ops) == 0 {
			return total, nil
		}
		if total+len(ops) > maxInferred {
			return total, fmt.Errorf("inference: exceeded %d inferred triples", maxInferred)
		}
		added, _, err := e.st.Apply(ops)
		total += added
		if err != nil {
			return total, err
		}
	}
	return total, fmt.Errorf("inference: no fixpoint after %d rounds", maxRounds)
}
