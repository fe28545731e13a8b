package pgrdf

import (
	"strings"

	"repro/internal/pg"
	"repro/internal/rdf"
)

// Cardinalities mirrors Table 2: the characteristics of the RDF dataset
// generated from a property graph under one PG-as-RDF model — named
// graphs, object-property quads (those encoding topology), data-property
// triples (KVs), and distinct subjects, object properties and data
// properties.
type Cardinalities struct {
	NamedGraphs, ObjPropQuads, DataPropTriples            int
	DistinctSubjects, DistinctObjProps, DistinctDataProps int
}

// PredictCardinalities evaluates the Table 2 formulas on a property
// graph's statistics by counting the scheme's templates under the
// default options: one object-property quad per edge and template, and
// a distinct predicate, subject or graph per value of the role there —
// e.g. V' + E subjects when an edge template has the edge resource as
// subject (RF, SP), else V' + E1, the edges with KVs (NG).
func PredictCardinalities(st pg.Stats, scheme Scheme) Cardinalities {
	enc := &encodings[scheme]
	c := Cardinalities{
		DataPropTriples:   st.EdgeKVs + st.NodeKVs,
		DistinctDataProps: st.Keys,
		// Edge resources are subjects of their KVs, if of nothing else.
		DistinctSubjects: st.SubjectVertices + st.EdgesWithKVs,
	}
	objProps := enc.Edge
	if enc.explicitPlain(DefaultOptions()) {
		objProps = append(objProps[:len(objProps):len(objProps)], enc.Plain)
	}
	c.ObjPropQuads = len(objProps) * st.Edges
	for _, t := range objProps {
		switch {
		case t.P == Label:
			c.DistinctObjProps += st.EdgeLabels
		case t.P == Edge:
			c.DistinctObjProps += st.Edges
		case !t.P.IsRole():
			c.DistinctObjProps++
		}
		if t.S == Edge {
			c.DistinctSubjects = st.SubjectVertices + st.Edges
		}
		if t.G == Edge {
			c.NamedGraphs = st.Edges
		}
	}
	return c
}

// MeasureCardinalities computes the actual Table 2 quantities from a
// generated dataset, for validating the predictor (invariant 3) and for
// reporting Tables 7 and 8.
func MeasureCardinalities(ds *Dataset) Cardinalities {
	var c Cardinalities
	graphs := make(map[string]struct{})
	subjects := make(map[string]struct{})
	objProps := make(map[string]struct{})
	dataProps := make(map[string]struct{})
	for _, q := range ds.All() {
		subjects[q.S.String()] = struct{}{}
		if !q.G.IsZero() {
			graphs[q.G.String()] = struct{}{}
		}
		if q.P.Value == rdf.RDFType {
			continue // isolated-vertex typing is outside Table 2
		}
		if q.O.IsLiteral() {
			c.DataPropTriples++
			dataProps[q.P.Value] = struct{}{}
		} else {
			c.ObjPropQuads++
			objProps[q.P.Value] = struct{}{}
		}
	}
	c.NamedGraphs = len(graphs)
	c.DistinctSubjects = len(subjects)
	c.DistinctObjProps = len(objProps)
	c.DistinctDataProps = len(dataProps)
	return c
}

// TripleCounts mirrors Table 7: per-label topology triples and per-key
// KV triple counts for a transformed dataset.
type TripleCounts struct {
	ByLabel map[string]int // topology edges per label
	ByKey   map[string]int // KV triples per key (node + edge)
	Total   int            // total triples/quads in the dataset
}

// CountTriples computes Table 7 quantities from a dataset using the
// converter's vocabulary to recognize label and key predicates.
func CountTriples(ds *Dataset, vocab Vocabulary) TripleCounts {
	tc := TripleCounts{ByLabel: make(map[string]int), ByKey: make(map[string]int), Total: ds.Len()}
	for _, part := range [][]rdf.Quad{ds.Topology, ds.NodeKV, ds.EdgeKV} {
		for _, q := range part {
			if label, ok := strings.CutPrefix(q.P.Value, vocab.RelNS); ok && label != "" && q.O.IsResource() {
				tc.ByLabel[label]++
			}
			if key, ok := strings.CutPrefix(q.P.Value, vocab.KeyNS); ok && key != "" {
				tc.ByKey[key]++
			}
		}
	}
	return tc
}
