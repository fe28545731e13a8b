package pgrdf

import (
	"strings"

	"repro/internal/rdf"
)

// Slot is one position of a quad template: a role that a property-graph
// element fills, a constant IRI, or Default, the default graph.
type Slot string

// The roles. Any other non-empty Slot is a constant IRI.
const (
	Default Slot = ""
	Src     Slot = "?src"
	Dst     Slot = "?dst"
	Label   Slot = "?label" // the edge label's relationship IRI
	Edge    Slot = "?edge"  // the edge resource
	Node    Slot = "?node"  // the vertex a KV or the marker is about
	Key     Slot = "?key"
	Value   Slot = "?value"
)

// IsRole reports whether a property-graph element fills the slot.
func (s Slot) IsRole() bool { return strings.HasPrefix(string(s), "?") }

// Template is one quad pattern of an encoding, kept in one §3.2
// partition. The zero Template, with no predicate, is absent.
type Template struct {
	S, P, O, G Slot
	part       partition
}

// Slots returns the template's slots in quad order.
func (t Template) Slots() [4]Slot { return [4]Slot{t.S, t.P, t.O, t.G} }

type partition uint8

const (
	topology partition = iota
	nodeKVs
	edgeKVs
)

// Encoding states one PG-as-RDF model as quad templates per property
// graph element. The Edge templates together put an edge's source,
// destination and label on its edge resource. Plain is the -s-p-o triple:
// asserted beside them under Options.ExplicitSPO unless one of them
// already asserts it, and instead of them under SingleTripleWhenNoKVs.
// Marker stands for a vertex with neither KVs nor edges (§2.3).
type Encoding struct {
	name                          string
	Edge                          []Template
	Plain, EdgeKV, NodeKV, Marker Template
}

var (
	plain  = Template{S: Src, P: Label, O: Dst, part: topology}
	nodeKV = Template{S: Node, P: Key, O: Value, part: nodeKVs}
	edgeKV = Template{S: Edge, P: Key, O: Value, part: edgeKVs}
	marker = Template{S: Node, P: Slot(rdf.RDFType), O: Slot(rdf.RDFSResource), part: topology}
)

// encodings states the three models of §2.3 (Table 1); nothing else in
// the module switches on a scheme. RF and SP keep their edge templates
// with the edge KVs (§3.2); NG's edge quad is topology, and its edge KVs
// are clustered into the edge's named graph.
var encodings = [...]Encoding{
	RF: {name: "RF", Plain: plain, EdgeKV: edgeKV, NodeKV: nodeKV, Marker: marker, Edge: []Template{
		{S: Edge, P: Slot(rdf.RDFSubject), O: Src, part: edgeKVs},
		{S: Edge, P: Slot(rdf.RDFPredicate), O: Label, part: edgeKVs},
		{S: Edge, P: Slot(rdf.RDFObject), O: Dst, part: edgeKVs},
	}},
	NG: {name: "NG", Plain: plain, NodeKV: nodeKV, Marker: marker,
		Edge:   []Template{{S: Src, P: Label, O: Dst, G: Edge, part: topology}},
		EdgeKV: Template{S: Edge, P: Key, O: Value, G: Edge, part: edgeKVs},
	},
	SP: {name: "SP", Plain: plain, EdgeKV: edgeKV, NodeKV: nodeKV, Marker: marker, Edge: []Template{
		{S: Src, P: Edge, O: Dst, part: edgeKVs},
		{S: Edge, P: Slot(rdf.RDFSSubPropertyOf), O: Label, part: edgeKVs},
	}},
}

// Encoding returns the scheme's templates. Their Edge slice is the
// table's own: read it, do not modify it.
func (s Scheme) Encoding() Encoding { return encodings[s] }

// explicitPlain reports whether o adds the plain triple to the
// identified-edge templates.
func (e *Encoding) explicitPlain(o Options) bool {
	return o.ExplicitSPO && !e.edgeHas(func(t Template) bool { return t.S == Src && t.P == Label && t.O == Dst })
}

// edgeHas reports whether some identified-edge template satisfies f.
func (e *Encoding) edgeHas(f func(Template) bool) bool {
	for _, t := range e.Edge {
		if f(t) {
			return true
		}
	}
	return false
}
