// Package pgrdf implements the paper's contribution: transforming
// property graphs into RDF so that an RDF store can serve as a property
// graph backend, queryable with standard SPARQL.
//
// The three PG-as-RDF models of §2.3 (Table 1) — RF (reification), NG
// (named graphs) and SP (subproperties) — are each stated once, as quad
// templates per property-graph element in the encodings table
// (encoding.go). Convert, FromRDF, the query builder, the cardinality
// predictions, RecommendedIndexes and internal/graph's CSR projector and
// patcher are all derived from it.
package pgrdf

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/pg"
	"repro/internal/rdf"
)

// Scheme selects a PG-as-RDF model.
type Scheme int

// The three PG-as-RDF models of §2.3.
const (
	RF Scheme = iota // (extended) reification based
	NG               // named graph based
	SP               // subproperty based
)

func (s Scheme) String() string {
	if s >= 0 && int(s) < len(encodings) {
		return encodings[s].name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ErrUnknownScheme is wrapped by ParseScheme's errors.
var ErrUnknownScheme = errors.New("unknown scheme (want RF, NG or SP)")

// ParseScheme maps a scheme name (any case) to its Scheme.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes {
		if strings.EqualFold(strings.TrimSpace(name), s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%q: %w", name, ErrUnknownScheme)
}

// Schemes lists all three models.
var Schemes = []Scheme{RF, NG, SP}

// Vocabulary controls IRI generation (§2.2): vertex ids map into the
// vertex namespace, edge ids into the edge namespace, labels into the
// relationship namespace and keys into the key namespace.
type Vocabulary struct {
	VertexNS     string // default http://pg/
	VertexPrefix string // default "v" (the Twitter dataset uses "n")
	EdgeNS       string // default http://pg/
	EdgePrefix   string // default "e"
	RelNS        string // default http://pg/r/
	KeyNS        string // default http://pg/k/
}

// DefaultVocabulary returns the paper's §2.2 vocabulary.
func DefaultVocabulary() Vocabulary {
	return Vocabulary{
		VertexNS:     rdf.PGNS,
		VertexPrefix: "v",
		EdgeNS:       rdf.PGNS,
		EdgePrefix:   "e",
		RelNS:        rdf.RelNS,
		KeyNS:        rdf.KeyNS,
	}
}

// VertexIRI maps a vertex id to its IRI (e.g. 1 -> <http://pg/v1>).
func (v Vocabulary) VertexIRI(id pg.ID) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%s%s%d", v.VertexNS, v.VertexPrefix, id))
}

// EdgeIRI maps an edge id to its IRI (e.g. 3 -> <http://pg/e3>).
func (v Vocabulary) EdgeIRI(id pg.ID) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("%s%s%d", v.EdgeNS, v.EdgePrefix, id))
}

// LabelIRI maps an edge label to its relationship IRI.
func (v Vocabulary) LabelIRI(label string) rdf.Term {
	return rdf.NewIRI(v.RelNS + label)
}

// KeyIRI maps a property key to its predicate IRI. No distinction is
// made between edge and node keys (§2.2).
func (v Vocabulary) KeyIRI(key string) rdf.Term {
	return rdf.NewIRI(v.KeyNS + key)
}

// ValueLiteral maps a property value to an RDF literal with an xsd
// datatype (§2.2, e.g. 23 -> "23"^^xsd:int).
func ValueLiteral(val pg.Value) rdf.Term {
	switch val.Kind {
	case pg.KindInt:
		if val.Int >= -1<<31 && val.Int < 1<<31 {
			return rdf.NewInt(int32(val.Int))
		}
		return rdf.NewInteger(val.Int)
	case pg.KindFloat:
		return rdf.NewDouble(val.Float)
	case pg.KindBool:
		return rdf.NewBoolean(val.Bool)
	default:
		return rdf.NewLiteral(val.Str)
	}
}

// Options tune the transformation.
type Options struct {
	// ExplicitSPO asserts the derivable -s-p-o triple in the RF and SP
	// models (§2 Discussion), allowing plain `?x rel:follows ?y`
	// patterns. Disabling it is the paper's implied storage
	// optimization, at the cost of query rewriting. Default true.
	ExplicitSPO bool
	// SingleTripleWhenNoKVs represents an edge without KVs as just the
	// -s-p-o triple (the optimization Table 2's note mentions but does
	// not account for). Default false, matching the paper's accounting.
	SingleTripleWhenNoKVs bool
}

// DefaultOptions matches the paper's accounting.
func DefaultOptions() Options { return Options{ExplicitSPO: true} }

// Dataset is the transformed RDF, split into the three partitions of
// §3.2: topology, node-KV triples and edge-KV triples. Every template
// names the partition its quads go to.
type Dataset struct {
	Scheme   Scheme
	Opts     Options // what Convert was run with
	Topology []rdf.Quad
	NodeKV   []rdf.Quad
	EdgeKV   []rdf.Quad
}

// emit instantiates template t into its partition.
func (d *Dataset) emit(t Template, b *binding) {
	if t.P != Default { // else an absent template
		part := [...]*[]rdf.Quad{topology: &d.Topology, nodeKVs: &d.NodeKV, edgeKVs: &d.EdgeKV}[t.part]
		*part = append(*part, rdf.Quad{S: b.term(t.S), P: b.term(t.P), O: b.term(t.O), G: b.term(t.G)})
	}
}

// binding holds the terms of the element being encoded, by role.
type binding struct{ src, dst, label, edge, node, key, value rdf.Term }

func (b *binding) term(s Slot) rdf.Term {
	switch s {
	case Default:
		return rdf.Term{}
	case Src:
		return b.src
	case Dst:
		return b.dst
	case Label:
		return b.label
	case Edge:
		return b.edge
	case Node:
		return b.node
	case Key:
		return b.key
	case Value:
		return b.value
	}
	return rdf.NewIRI(string(s))
}

// All returns every quad of the dataset (topology first).
func (d *Dataset) All() []rdf.Quad {
	out := make([]rdf.Quad, 0, d.Len())
	return append(append(append(out, d.Topology...), d.NodeKV...), d.EdgeKV...)
}

// Len returns the total number of quads.
func (d *Dataset) Len() int { return len(d.Topology) + len(d.NodeKV) + len(d.EdgeKV) }

// Converter transforms property graphs to RDF under one scheme.
type Converter struct {
	Scheme Scheme
	Vocab  Vocabulary
	Opts   Options
}

// NewConverter returns a converter with the default vocabulary/options.
func NewConverter(s Scheme) *Converter {
	return &Converter{Scheme: s, Vocab: DefaultVocabulary(), Opts: DefaultOptions()}
}

// Convert transforms the graph by instantiating the scheme's templates:
// per edge its identified-edge templates, the plain triple when the
// options ask for it, and one edge-KV quad per key/value pair; per vertex
// one node-KV quad per pair, and the marker when it is isolated.
func (c *Converter) Convert(g *pg.Graph) *Dataset {
	enc := &encodings[c.Scheme]
	ds := &Dataset{Scheme: c.Scheme, Opts: c.Opts}
	explicit := enc.explicitPlain(c.Opts)
	var b binding
	kvs := func(t Template, keys []string, values func(string) []pg.Value) {
		for _, key := range keys {
			b.key = c.Vocab.KeyIRI(key)
			for _, val := range values(key) {
				b.value = ValueLiteral(val)
				ds.emit(t, &b)
			}
		}
	}

	g.Edges(func(e *pg.Edge) bool {
		b.src, b.dst = c.Vocab.VertexIRI(e.Src), c.Vocab.VertexIRI(e.Dst)
		b.label, b.edge = c.Vocab.LabelIRI(e.Label), c.Vocab.EdgeIRI(e.ID)
		if c.Opts.SingleTripleWhenNoKVs && e.NumProperties() == 0 {
			ds.emit(enc.Plain, &b)
			return true
		}
		for _, t := range enc.Edge {
			ds.emit(t, &b)
		}
		if explicit {
			ds.emit(enc.Plain, &b)
		}
		kvs(enc.EdgeKV, e.Keys(), e.Values)
		return true
	})

	g.Vertices(func(v *pg.Vertex) bool {
		b.node = c.Vocab.VertexIRI(v.ID)
		kvs(enc.NodeKV, v.Keys(), v.Values)
		if v.NumProperties() == 0 && len(g.OutEdges(v.ID)) == 0 && len(g.InEdges(v.ID)) == 0 {
			ds.emit(enc.Marker, &b)
		}
		return true
	})
	return ds
}
