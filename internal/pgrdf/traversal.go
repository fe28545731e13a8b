package pgrdf

import (
	"fmt"

	"repro/internal/rdf"
	"repro/internal/store"
)

// This file implements the procedural traversal alternative the paper's
// conclusion points to: "An alternative for such cases is to perform
// traversal procedurally similar to the approach of Gremlin". It gives
// property-graph applications the two capabilities §5.1 says SPARQL 1.1
// lacks — bounding path lengths and returning the paths themselves —
// directly over the PG-as-RDF store, for any scheme.

// Traverser walks topology edges of a PG-as-RDF dataset procedurally.
// It reads the one store version current when it was built, so a walk
// never mixes the contents of two versions.
type Traverser struct {
	view  *store.View
	dict  *store.Dict
	vocab Vocabulary
	// models restricts traversal to a dataset (nil = all models).
	models map[store.ModelID]struct{}
}

// NewTraverser returns a traverser over the dataset named by model
// (a semantic or virtual model; "" = all models). The store must hold a
// dataset produced by any of the three schemes: traversal uses the
// asserted -s-p-o / e-s-p-o topology facts, which all schemes share.
func NewTraverser(st *store.Store, vocab Vocabulary, model string) (*Traverser, error) {
	t := &Traverser{view: st.View(), dict: st.Dict(), vocab: vocab}
	if model != "" {
		ids, err := t.view.ResolveDataset(model)
		if err != nil {
			return nil, err
		}
		t.models = make(map[store.ModelID]struct{}, len(ids))
		for _, id := range ids {
			t.models[id] = struct{}{}
		}
	}
	return t, nil
}

// Step is one hop of a path: the edge label and the destination vertex.
type Step struct {
	Label string
	To    rdf.Term
}

// Path is a traversal result: a start vertex and the steps taken.
type Path struct {
	Start rdf.Term
	Steps []Step
}

// End returns the path's final vertex.
func (p Path) End() rdf.Term {
	if len(p.Steps) == 0 {
		return p.Start
	}
	return p.Steps[len(p.Steps)-1].To
}

// Len returns the path length in edges.
func (p Path) Len() int { return len(p.Steps) }

// String renders the path compactly.
func (p Path) String() string {
	s := p.Start.String()
	for _, st := range p.Steps {
		s += fmt.Sprintf(" -%s-> %s", st.Label, st.To.String())
	}
	return s
}

// Out returns the out-neighbors of node via edges with the given label
// ("" = any label).
func (t *Traverser) Out(node rdf.Term, label string) []Step {
	return t.neighbors(node, label, false)
}

// In returns the in-neighbors of node via edges with the given label
// ("" = any label).
func (t *Traverser) In(node rdf.Term, label string) []Step {
	return t.neighbors(node, label, true)
}

func (t *Traverser) neighbors(node rdf.Term, label string, reverse bool) []Step {
	id := t.dict.Lookup(node)
	if id == store.NoID {
		return nil
	}
	p := store.AnyPattern()
	if reverse {
		p.C = id
	} else {
		p.S = id
	}
	if label != "" {
		pid := t.dict.Lookup(t.vocab.LabelIRI(label))
		if pid == store.NoID {
			return nil
		}
		p.P = pid
	}
	relPrefix := t.vocab.RelNS
	var out []Step
	t.view.Scan(p, func(q store.IDQuad) bool {
		if t.models != nil {
			if _, ok := t.models[q.M]; !ok {
				return true
			}
		}
		pred := t.dict.Term(q.P)
		if len(pred.Value) <= len(relPrefix) || pred.Value[:len(relPrefix)] != relPrefix {
			return true // not a topology predicate (KV triple or scheme anchor)
		}
		other := q.C
		if reverse {
			other = q.S
		}
		dest := t.dict.Term(other)
		if !dest.IsIRI() {
			return true
		}
		out = append(out, Step{Label: pred.Value[len(relPrefix):], To: dest})
		return true
	})
	return out
}

// Walk enumerates every path from start following edges with the given
// label ("" = any), of length minLen..maxLen, invoking fn for each. The
// callback's path is only valid during the call (clone to retain).
// Returning false stops the traversal. Unlike SPARQL property paths,
// Walk can bound path length and yields the path itself — the §5.1 gap.
func (t *Traverser) Walk(start rdf.Term, label string, minLen, maxLen int, fn func(Path) bool) error {
	if maxLen < minLen || minLen < 0 {
		return fmt.Errorf("pgrdf: invalid path length bounds [%d,%d]", minLen, maxLen)
	}
	path := Path{Start: start}
	var rec func(node rdf.Term, depth int) bool
	rec = func(node rdf.Term, depth int) bool {
		if depth >= minLen {
			if !fn(path) {
				return false
			}
		}
		if depth == maxLen {
			return true
		}
		for _, step := range t.neighbors(node, label, false) {
			path.Steps = append(path.Steps, step)
			ok := rec(step.To, depth+1)
			path.Steps = path.Steps[:len(path.Steps)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(start, 0)
	return nil
}

// CountPaths counts the paths from start of exactly n hops over the
// label — the procedural equivalent of the paper's EQ11 queries.
func (t *Traverser) CountPaths(start rdf.Term, label string, n int) (int64, error) {
	var count int64
	err := t.Walk(start, label, n, n, func(Path) bool {
		count++
		return true
	})
	return count, err
}

// ShortestPath returns one shortest path between two vertices over the
// label ("" = any), using BFS, or ok=false when unreachable. This is the
// kind of query §5.1 notes SPARQL cannot express at all.
func (t *Traverser) ShortestPath(from, to rdf.Term, label string) (Path, bool) {
	if from.Equal(to) {
		return Path{Start: from}, true
	}
	type visit struct {
		node rdf.Term
		prev string // key of predecessor
		step Step
	}
	key := func(t rdf.Term) string { return t.String() }
	visited := map[string]visit{key(from): {node: from}}
	frontier := []rdf.Term{from}
	for len(frontier) > 0 {
		var next []rdf.Term
		for _, node := range frontier {
			for _, step := range t.neighbors(node, label, false) {
				k := key(step.To)
				if _, seen := visited[k]; seen {
					continue
				}
				visited[k] = visit{node: step.To, prev: key(node), step: step}
				if step.To.Equal(to) {
					// Reconstruct.
					var steps []Step
					cur := k
					for cur != key(from) {
						v := visited[cur]
						steps = append([]Step{v.step}, steps...)
						cur = v.prev
					}
					return Path{Start: from, Steps: steps}, true
				}
				next = append(next, step.To)
			}
		}
		frontier = next
	}
	return Path{}, false
}
