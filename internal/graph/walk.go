package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rdf"
)

// This file is the procedural traversal the paper's conclusion points
// to ("perform traversal procedurally similar to the approach of
// Gremlin"): bounded path enumeration and shortest paths, the two
// things §5.1 says SPARQL 1.1 property paths cannot return. They walk
// the CSR, so a traversal sees the graph PageRank, WCC and triangles
// see, decoded from the store under any scheme: a path is a vertex
// sequence, and parallel edges — or, unfiltered, edges of different
// labels between one pair — are one step.

// Index returns the vertex whose term is t, by binary search over the
// canonically sorted terms; ok is false when t is not a vertex.
func (c *CSR) Index(t rdf.Term) (v uint32, ok bool) {
	i := sort.Search(len(c.terms), func(i int) bool { return rdf.Compare(c.terms[i], t) >= 0 })
	return uint32(i), i < len(c.terms) && rdf.Compare(c.terms[i], t) == 0
}

// Walk calls fn with every path of minLen..maxLen edges from start over
// the forward adjacency, as a vertex sequence beginning at start, depth
// first with each row in vertex order. Vertices may repeat. The path is
// only valid during the call; fn returning false stops the walk.
func (c *CSR) Walk(start uint32, minLen, maxLen int, fn func(path []uint32) bool) error {
	if minLen < 0 || maxLen < minLen {
		return fmt.Errorf("graph: invalid path length bounds [%d,%d]", minLen, maxLen)
	}
	path := []uint32{start}
	var walk func() bool
	walk = func() bool {
		n := len(path) - 1
		if n >= minLen && !fn(path) {
			return false
		}
		if n == maxLen {
			return true
		}
		for _, w := range c.Neighbors(path[n]) {
			path = append(path, w)
			ok := walk()
			path = path[:n+1]
			if !ok {
				return false
			}
		}
		return true
	}
	walk()
	return nil
}

// ShortestPath returns a shortest path from src to dst over the forward
// adjacency as its vertex sequence — [src] when they are equal — or nil
// when dst is unreachable. Of several shortest paths it returns the one
// a breadth-first search expanding rows in vertex order reaches first.
func (c *CSR) ShortestPath(src, dst uint32) []uint32 {
	const unseen = ^uint32(0)
	prev := make([]uint32, len(c.terms))
	for i := range prev {
		prev[i] = unseen
	}
	prev[src] = src
	for frontier := []uint32{src}; len(frontier) > 0 && prev[dst] == unseen; {
		var next []uint32
		for _, v := range frontier {
			for _, w := range c.Neighbors(v) {
				if prev[w] == unseen {
					prev[w] = v
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	if prev[dst] == unseen {
		return nil
	}
	path := []uint32{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	slices.Reverse(path)
	return path
}
