package pgrdf

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// QueryBuilder formulates SPARQL graph patterns for property graph
// queries under a PG-as-RDF model, per the rules of §2.3: edge access
// without edge KVs uses the plain -s-p-o pattern, identical in all models
// (the asserted -s-p-o, or NG's e-s-p-o); edge access with edge KVs goes
// through the model's identified-edge templates to reach the edge
// resource first.
type QueryBuilder struct {
	Scheme Scheme
	Vocab  Vocabulary
}

// NewQueryBuilder returns a builder for a scheme with the default
// vocabulary.
func NewQueryBuilder(s Scheme) *QueryBuilder {
	return &QueryBuilder{Scheme: s, Vocab: DefaultVocabulary()}
}

// Prologue returns the PREFIX declarations for the builder's vocabulary.
func (qb *QueryBuilder) Prologue() string {
	return fmt.Sprintf(`PREFIX rdf: <%s>
PREFIX rdfs: <%s>
PREFIX rel: <%s>
PREFIX key: <%s>
`, rdf.RDFNS, rdf.RDFSNS, qb.Vocab.RelNS, qb.Vocab.KeyNS)
}

// EdgePattern returns a pattern matching an edge with the given label
// between ?src and ?dst, without edge-KV access.
func (qb *QueryBuilder) EdgePattern(src, dst, label string) string {
	return fmt.Sprintf("?%s rel:%s ?%s .", src, label, dst)
}

// EdgeKVPattern returns the model-specific pattern group that matches an
// edge with the given label between ?src and ?dst and binds the edge
// resource to ?edge together with its key/value pairs ?key/?val (the Q2
// patterns of Table 3).
func (qb *QueryBuilder) EdgeKVPattern(src, dst, edge, label, key, val string) string {
	return qb.edgePattern(src, dst, edge, label, "?"+key, val) + " FILTER (isLiteral(?" + val + ")) ."
}

// EdgeBoundKVPattern is like EdgeKVPattern but for a single bound key:
// it binds only ?val for the given key (e.g. "who follows whom since
// when" from §2.1).
func (qb *QueryBuilder) EdgeBoundKVPattern(src, dst, edge, label, key, val string) string {
	return qb.edgePattern(src, dst, edge, label, "key:"+key, val)
}

// edgePattern substitutes the arguments into the scheme's identified-edge
// templates and its edge-KV template, one triple pattern each.
func (qb *QueryBuilder) edgePattern(src, dst, edge, label, key, val string) string {
	enc := &encodings[qb.Scheme]
	terms := map[Slot]string{Src: "?" + src, Dst: "?" + dst, Edge: "?" + edge, Label: "rel:" + label, Key: key, Value: "?" + val}
	term := func(s Slot) string {
		if t, ok := terms[s]; ok {
			return t
		}
		if short := strings.NewReplacer(rdf.RDFNS, "rdf:", rdf.RDFSNS, "rdfs:").Replace(string(s)); short != string(s) {
			return short
		}
		return "<" + string(s) + ">"
	}
	var out []string
	for _, t := range append(enc.Edge[:len(enc.Edge):len(enc.Edge)], enc.EdgeKV) {
		triple := term(t.S) + " " + term(t.P) + " " + term(t.O) + " ."
		if t.G != Default {
			triple = "GRAPH " + term(t.G) + " { " + triple + " }"
		}
		out = append(out, triple)
	}
	return strings.Join(out, " ")
}

// NodeKVPattern returns a pattern matching ?node having the given key
// bound to ?val (rule 3a).
func (qb *QueryBuilder) NodeKVPattern(node, key, val string) string {
	return fmt.Sprintf("?%s key:%s ?%s .", node, key, val)
}

// Select assembles a full SELECT query from projection variables and
// pattern fragments.
func (qb *QueryBuilder) Select(vars []string, patterns ...string) string {
	proj := make([]string, len(vars))
	for i, v := range vars {
		proj[i] = "?" + v
	}
	return qb.Prologue() + "SELECT " + strings.Join(proj, " ") +
		" WHERE { " + strings.Join(patterns, " ") + " }"
}

// QueryType is a Table 4 query type, which TargetModel maps to the
// partitions it should be posed against.
type QueryType int

// The Table 4 query types.
const (
	// EdgeTraversal touches only topology quads/triples.
	EdgeTraversal QueryType = iota
	// EdgeWithKV touches the edge resource and its KVs.
	EdgeWithKV
	// NodeKV touches node KV triples.
	NodeKV
)

// TargetModel returns the narrowest dataset (model or virtual model
// name) that answers a query type under this scheme, per Table 4.
func (qb *QueryBuilder) TargetModel(prefix string, qt QueryType) string {
	names := PartitionNames(prefix)
	switch qt {
	case EdgeTraversal:
		return names.Topology
	case EdgeWithKV:
		// The partitions of the identified-edge templates: NG's e-s-p-o
		// is topology, RF and SP keep theirs with the edge KVs (§3.2).
		if encodings[qb.Scheme].edgeHas(func(t Template) bool { return t.part == topology }) {
			return names.TopoEdgeKV
		}
		return names.EdgeKV
	default:
		return names.NodeKV
	}
}
