// Package graph is the analytics tier beside the SPARQL endpoint: it
// projects a plain directed graph out of the ID-quad indexes — decoding
// edges under all three PG-as-RDF schemes (RF, NG, SP) — into a compact
// CSR, and runs PageRank, weakly-connected components and triangle
// counting over it on a morsel-parallel runtime with budget/cancellation
// guards. This reproduces the "analytics-only" deployment shape of the
// Oracle PGX material: the same store serves SPARQL queries and whole-
// graph algorithms SPARQL cannot express.
//
// Determinism contract: for a given store snapshot, projection and every
// algorithm produce byte-identical results at any Parallelism and under
// any of the three schemes. See DESIGN.md §17 for the argument.
package graph

import (
	"sort"

	"repro/internal/rdf"
)

// CSR is a compressed-sparse-row projection of an edge relation: a
// simple directed graph (parallel edges collapsed, one row per source
// vertex, each row sorted by destination) with an optional reverse
// adjacency and optional per-edge weights.
//
// Vertices are densely renumbered in the canonical order of their RDF
// terms (rdf.Compare), which is a property of the projected graph alone
// — not of dictionary insertion order — so the same property graph
// loaded under RF, NG and SP projects to bit-identical CSRs.
//
// A CSR is immutable after Build: algorithm workers read it without
// synchronization.
type CSR struct {
	terms []rdf.Term // vertex -> RDF term, canonical order
	off   []uint32   // forward row offsets, len NumVertices()+1
	dst   []uint32   // forward adjacency, sorted per row
	w     []float64  // per-edge weights parallel to dst; nil = unweighted
	roff  []uint32   // reverse row offsets; nil unless built with reverse
	rsrc  []uint32   // reverse adjacency, sorted per row
	rw    []float64  // weights parallel to rsrc
}

// NumVertices returns the number of projected vertices.
func (c *CSR) NumVertices() int { return len(c.terms) }

// NumEdges returns the number of distinct (src, dst) edges.
func (c *CSR) NumEdges() int { return len(c.dst) }

// Weighted reports whether the projection carries edge weights.
func (c *CSR) Weighted() bool { return c.w != nil }

// HasReverse reports whether the reverse adjacency was built.
func (c *CSR) HasReverse() bool { return c.roff != nil }

// Term returns the RDF term of vertex v.
func (c *CSR) Term(v uint32) rdf.Term { return c.terms[v] }

// Neighbors returns the out-neighbors of v, sorted by vertex index.
// The returned slice aliases the CSR and must not be modified.
func (c *CSR) Neighbors(v uint32) []uint32 { return c.dst[c.off[v]:c.off[v+1]] }

// NeighborWeights returns the weights parallel to Neighbors(v), or nil
// when the projection is unweighted.
func (c *CSR) NeighborWeights(v uint32) []float64 {
	if c.w == nil {
		return nil
	}
	return c.w[c.off[v]:c.off[v+1]]
}

// InNeighbors returns the in-neighbors of v, sorted by vertex index.
// It panics unless the CSR was built with a reverse adjacency.
func (c *CSR) InNeighbors(v uint32) []uint32 { return c.rsrc[c.roff[v]:c.roff[v+1]] }

// InNeighborWeights returns the weights parallel to InNeighbors(v), or
// nil when the projection is unweighted.
func (c *CSR) InNeighborWeights(v uint32) []float64 {
	if c.rw == nil {
		return nil
	}
	return c.rw[c.roff[v]:c.roff[v+1]]
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v uint32) int { return int(c.off[v+1] - c.off[v]) }

// InDegree returns the in-degree of v.
func (c *CSR) InDegree(v uint32) int { return int(c.roff[v+1] - c.roff[v]) }

// rawEdge is one decoded edge occurrence before deduplication, in
// vertex-index space. identified marks occurrences decoded from an
// edge resource (reified statement, named graph, or subproperty
// anchor); plain s-p-o triples are unidentified and carry no weight.
type rawEdge struct {
	src, dst   uint32
	w          float64
	identified bool
}

// buildCSR assembles the immutable CSR from decoded edge occurrences.
// terms must already be in canonical order; edges refer to indexes in
// it. Duplicate (src, dst) occurrences collapse to one edge. When
// weighted, the collapsed weight is the sum over identified occurrences
// (each defaulting to 1 when it carried no weight value); pairs seen
// only as plain triples weigh 1. Summation happens in sorted
// (src, dst, weight) order, so the result is independent of decode
// order and therefore of scheme and parallelism. occ, parallel to the
// forward adjacency, counts the occurrences each edge collapsed — what
// Patch needs to know whether a deleted occurrence was the last one.
func buildCSR(terms []rdf.Term, edges []rawEdge, weighted, reverse bool) (c *CSR, occ []uint32) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.w != b.w {
			return a.w < b.w
		}
		return !a.identified && b.identified
	})

	n := len(terms)
	c = &CSR{terms: terms, off: make([]uint32, n+1)}
	if weighted {
		c.w = make([]float64, 0, len(edges))
	}
	c.dst = make([]uint32, 0, len(edges))
	occ = make([]uint32, 0, len(edges))
	for i := 0; i < len(edges); {
		j := i
		idSum, idSeen := 0.0, false
		for ; j < len(edges) && edges[j].src == edges[i].src && edges[j].dst == edges[i].dst; j++ {
			if edges[j].identified {
				idSeen = true
				idSum += edges[j].w
			}
		}
		c.dst = append(c.dst, edges[i].dst)
		occ = append(occ, uint32(j-i))
		c.off[edges[i].src+1]++
		if weighted {
			ew := 1.0
			if idSeen {
				ew = idSum
			}
			c.w = append(c.w, ew)
		}
		i = j
	}
	for v := 0; v < n; v++ {
		c.off[v+1] += c.off[v]
	}

	if reverse {
		c.buildReverse()
	}
	return c, occ
}

// buildReverse constructs the in-adjacency by counting sort over the
// forward rows, preserving sorted order within each reverse row.
func (c *CSR) buildReverse() {
	n := len(c.terms)
	c.roff = make([]uint32, n+1)
	for _, d := range c.dst {
		c.roff[d+1]++
	}
	for v := 0; v < n; v++ {
		c.roff[v+1] += c.roff[v]
	}
	c.rsrc = make([]uint32, len(c.dst))
	if c.w != nil {
		c.rw = make([]float64, len(c.dst))
	}
	next := make([]uint32, n)
	copy(next, c.roff[:n])
	// Iterating sources in ascending order keeps every reverse row
	// sorted by source index, which fixes the floating-point gather
	// order in pull-based PageRank.
	for s := uint32(0); s < uint32(n); s++ {
		for i := c.off[s]; i < c.off[s+1]; i++ {
			d := c.dst[i]
			c.rsrc[next[d]] = s
			if c.rw != nil {
				c.rw[next[d]] = c.w[i]
			}
			next[d]++
		}
	}
}
