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
package inference

import (
	"errors"
	"fmt"

	"repro/internal/rdf"
	"repro/internal/store"
)

// TriplePattern is a rule atom: each position holds either a constant
// term or a variable name (prefixed with '?').
type TriplePattern struct {
	S, P, O string
}

// Rule is a user-defined rule: when every body atom matches, the head
// atoms are instantiated and asserted.
type Rule struct {
	Name string
	Body []TriplePattern
	Head []TriplePattern
}

// Validate checks that head variables appear in the body.
func (r Rule) Validate() error {
	bound := map[string]bool{}
	for _, a := range r.Body {
		for _, pos := range []string{a.S, a.P, a.O} {
			if isVar(pos) {
				bound[pos] = true
			}
		}
	}
	for _, a := range r.Head {
		for _, pos := range []string{a.S, a.P, a.O} {
			if isVar(pos) && !bound[pos] {
				return fmt.Errorf("inference: rule %q: head variable %s not bound in body", r.Name, pos)
			}
		}
	}
	if len(r.Body) == 0 || len(r.Head) == 0 {
		return fmt.Errorf("inference: rule %q must have a body and a head", r.Name)
	}
	return nil
}

func isVar(s string) bool { return len(s) > 1 && s[0] == '?' }

// Engine runs forward chaining over a dataset.
type Engine struct {
	st    *store.Store
	rules []Rule
}

// New returns an engine over the store.
func New(st *store.Store) *Engine { return &Engine{st: st} }

// AddRule registers a user-defined rule.
func (e *Engine) AddRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.rules = append(e.rules, r)
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

// Run computes the fixpoint of the registered rules over the dataset
// named by srcModel (a model or virtual model; "" = all), asserting new
// triples into dstModel. It returns the number of triples inferred.
//
// Inferred triples always go to the default graph of dstModel.
func (e *Engine) Run(srcModel, dstModel string, opts Options) (int, error) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64
	}
	maxInferred := opts.MaxInferred
	if maxInferred == 0 {
		maxInferred = 10_000_000
	}
	srcIDs, err := e.st.View().ResolveDataset(srcModel)
	if err != nil {
		return 0, err
	}
	models := make(map[store.ModelID]struct{}, len(srcIDs)+1)
	for _, id := range srcIDs {
		models[id] = struct{}{}
	}
	// The destination participates in matching so rules chain.
	models[e.st.Model(dstModel)] = struct{}{}

	total := 0
	for round := 0; round < maxRounds; round++ {
		// A round matches and checks presence against one version: the
		// one its predecessor's inserts produced.
		view := e.st.View()
		var fresh []rdf.Quad
		for _, r := range e.rules {
			matches, err := e.matchRule(view, r, models)
			if err != nil {
				return total, err
			}
			fresh = append(fresh, matches...)
		}
		added := 0
		for _, q := range fresh {
			if total+added >= maxInferred {
				return total + added, fmt.Errorf("inference: exceeded %d inferred triples", maxInferred)
			}
			if e.presentInModels(view, q, srcIDs) {
				continue // already asserted; Oracle's engine does not duplicate it
			}
			ok, err := e.st.Insert(dstModel, q)
			if err != nil {
				return total + added, err
			}
			if ok {
				added++
			}
		}
		e.st.Compact()
		total += added
		if added == 0 {
			return total, nil
		}
	}
	return total, fmt.Errorf("inference: no fixpoint after %d rounds", maxRounds)
}

// presentInModels reports whether the triple is already asserted in any
// of the source models (in any graph) of view.
func (e *Engine) presentInModels(view *store.View, q rdf.Quad, models []store.ModelID) bool {
	p := store.AnyPattern()
	p.S = e.st.Dict().Lookup(q.S)
	p.P = e.st.Dict().Lookup(q.P)
	p.C = e.st.Dict().Lookup(q.O)
	if p.S == store.NoID || p.P == store.NoID || p.C == store.NoID {
		return false
	}
	found := false
	view.Scan(p, func(row store.IDQuad) bool {
		for _, m := range models {
			if row.M == m {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// orderBody greedily orders rule body atoms: atoms with more constants
// first, then atoms sharing a variable with the already-bound set —
// keeping, e.g., the RDFS subPropertyOf-usage rule from opening with a
// full scan of `?s ?p ?o` when the tiny `?p rdfs:subPropertyOf ?q` atom
// can bind ?p first.
func orderBody(body []TriplePattern) []TriplePattern {
	n := len(body)
	used := make([]bool, n)
	bound := map[string]bool{}
	out := make([]TriplePattern, 0, n)
	varsOf := func(a TriplePattern) []string {
		var vs []string
		for _, pos := range []string{a.S, a.P, a.O} {
			if isVar(pos) {
				vs = append(vs, pos)
			}
		}
		return vs
	}
	for len(out) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			consts := 3 - len(varsOf(body[i]))
			joined := 0
			for _, v := range varsOf(body[i]) {
				if bound[v] {
					joined = 1
					break
				}
			}
			score := consts*4 + joined*2
			if len(out) == 0 {
				score = consts // nothing bound yet
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		out = append(out, body[best])
		for _, v := range varsOf(body[best]) {
			bound[v] = true
		}
	}
	return out
}

// matchRule evaluates a rule body against the models of view and
// returns the instantiated head quads (possibly already present; Insert
// dedupes).
func (e *Engine) matchRule(view *store.View, r Rule, models map[store.ModelID]struct{}) ([]rdf.Quad, error) {
	type bindings map[string]store.ID
	results := []bindings{{}}
	for _, atom := range orderBody(r.Body) {
		var next []bindings
		pat, vars, err := e.compileAtom(atom)
		if err != nil {
			return nil, err
		}
		if pat == nil {
			return nil, nil // a constant term is absent: no matches
		}
		for _, b := range results {
			p := *pat
			// Substitute bound vars.
			if vars.s != "" {
				if id, ok := b[vars.s]; ok {
					p.S = id
				}
			}
			if vars.p != "" {
				if id, ok := b[vars.p]; ok {
					p.P = id
				}
			}
			if vars.o != "" {
				if id, ok := b[vars.o]; ok {
					p.C = id
				}
			}
			view.Scan(p, func(q store.IDQuad) bool {
				if _, ok := models[q.M]; !ok {
					return true
				}
				nb := bindings{}
				for k, v := range b {
					nb[k] = v
				}
				ok := true
				bind := func(name string, v store.ID) {
					if name == "" || !ok {
						return
					}
					if prev, bound := nb[name]; bound {
						ok = prev == v
					} else {
						nb[name] = v
					}
				}
				bind(vars.s, q.S)
				bind(vars.p, q.P)
				bind(vars.o, q.C)
				if ok {
					next = append(next, nb)
				}
				return true
			})
		}
		results = next
		if len(results) == 0 {
			return nil, nil
		}
	}

	var out []rdf.Quad
	for _, b := range results {
		for _, h := range r.Head {
			q, err := e.instantiateHead(h, b)
			if err != nil {
				return nil, err
			}
			if q.Validate() == nil {
				out = append(out, q)
			}
		}
	}
	return out, nil
}

type atomVars struct{ s, p, o string }

// compileAtom resolves an atom's constants; nil pattern means a constant
// is unknown to the dictionary (no matches possible).
func (e *Engine) compileAtom(a TriplePattern) (*store.Pattern, atomVars, error) {
	p := store.AnyPattern()
	var vars atomVars
	resolve := func(s string, set func(store.ID), varSlot *string) error {
		if isVar(s) {
			*varSlot = s
			return nil
		}
		t, err := parseTerm(s)
		if err != nil {
			return err
		}
		id := e.st.Dict().Lookup(t)
		if id == store.NoID {
			return errAbsent
		}
		set(id)
		return nil
	}
	if err := resolve(a.S, func(id store.ID) { p.S = id }, &vars.s); err != nil {
		if errors.Is(err, errAbsent) {
			return nil, vars, nil
		}
		return nil, vars, err
	}
	if err := resolve(a.P, func(id store.ID) { p.P = id }, &vars.p); err != nil {
		if errors.Is(err, errAbsent) {
			return nil, vars, nil
		}
		return nil, vars, err
	}
	if err := resolve(a.O, func(id store.ID) { p.C = id }, &vars.o); err != nil {
		if errors.Is(err, errAbsent) {
			return nil, vars, nil
		}
		return nil, vars, err
	}
	return &p, vars, nil
}

var errAbsent = fmt.Errorf("inference: term absent")

func (e *Engine) instantiateHead(h TriplePattern, b map[string]store.ID) (rdf.Quad, error) {
	resolve := func(s string) (rdf.Term, error) {
		if isVar(s) {
			id, ok := b[s]
			if !ok {
				return rdf.Term{}, fmt.Errorf("inference: unbound head variable %s", s)
			}
			return e.st.Dict().Term(id), nil
		}
		return parseTerm(s)
	}
	s, err := resolve(h.S)
	if err != nil {
		return rdf.Quad{}, err
	}
	p, err := resolve(h.P)
	if err != nil {
		return rdf.Quad{}, err
	}
	o, err := resolve(h.O)
	if err != nil {
		return rdf.Quad{}, err
	}
	return rdf.Quad{S: s, P: p, O: o}, nil
}

// parseTerm parses a constant: <iri>, "literal", or _:blank.
func parseTerm(s string) (rdf.Term, error) {
	switch {
	case len(s) > 2 && s[0] == '<' && s[len(s)-1] == '>':
		return rdf.NewIRI(s[1 : len(s)-1]), nil
	case len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"':
		return rdf.NewLiteral(s[1 : len(s)-1]), nil
	case len(s) > 2 && s[0] == '_' && s[1] == ':':
		return rdf.NewBlank(s[2:]), nil
	default:
		return rdf.Term{}, fmt.Errorf("inference: cannot parse term %q (use <iri>, \"literal\" or _:label)", s)
	}
}
