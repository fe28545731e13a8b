package graph

import (
	"context"

	"repro/internal/guard"
)

// TrianglesResult holds the undirected triangle count.
type TrianglesResult struct {
	Count int64
}

// Triangles counts the distinct triangles of the underlying undirected
// simple graph (edge direction and self-loops ignored), the standard
// degree-ordered intersection algorithm: every undirected edge is
// oriented from its lower-ranked endpoint to its higher-ranked one —
// rank being (undirected degree, vertex index) — which turns each
// triangle into exactly one wedge u -> v, u -> w with an oriented edge
// v -> w, found by intersecting the sorted oriented rows of u and v.
// Counting is integer arithmetic folded from per-morsel partials, so
// the result is trivially parallelism-independent; the degree-ordered
// orientation bounds each oriented row by O(sqrt(E)), which is what
// makes the intersection pass feasible on skewed degree distributions.
func (r Runner) Triangles(ctx context.Context, cs *CSR) (res *TrianglesResult, err error) {
	defer guard.Recover(&err)
	if !cs.HasReverse() {
		return nil, &guard.Error{Kind: guard.ErrInternal, Msg: "Triangles requires a CSR with a reverse adjacency (ProjectOptions.Reverse)"}
	}
	g, cancel, err := guard.Start(ctx, r.Budget)
	if err != nil {
		return nil, err
	}
	defer cancel()

	n := cs.NumVertices()
	res = &TrianglesResult{}
	if n == 0 {
		return res, nil
	}
	w := r.workers()
	nm := numMorsels(n)

	// Phase 1: undirected degree of every vertex — the size of the
	// merged, deduplicated union of its out- and in-rows, minus self.
	udeg := make([]uint32, n)
	ok := runMorsels(w, n, g, func(m, lo, hi int) bool {
		edges := 0
		for v := lo; v < hi; v++ {
			out, in := cs.Neighbors(uint32(v)), cs.InNeighbors(uint32(v))
			udeg[v] = uint32(mergedCount(uint32(v), out, in, nil))
			edges += len(out) + len(in)
		}
		return g.TickN(edges + (hi - lo))
	})
	if !ok {
		return nil, runError(g)
	}

	// rankLess orders vertices by (undirected degree, index); edges are
	// oriented from lower to higher rank.
	rankLess := func(a, b uint32) bool {
		if udeg[a] != udeg[b] {
			return udeg[a] < udeg[b]
		}
		return a < b
	}

	// Phase 2: size of each oriented row.
	ocnt := make([]uint32, n)
	ok = runMorsels(w, n, g, func(m, lo, hi int) bool {
		edges := 0
		for v := lo; v < hi; v++ {
			out, in := cs.Neighbors(uint32(v)), cs.InNeighbors(uint32(v))
			c := 0
			mergedCount(uint32(v), out, in, func(u uint32) {
				if rankLess(uint32(v), u) {
					c++
				}
			})
			ocnt[v] = uint32(c)
			edges += len(out) + len(in)
		}
		return g.TickN(edges + (hi - lo))
	})
	if !ok {
		return nil, runError(g)
	}

	// Serial prefix sum over the oriented row sizes, then a parallel
	// fill: each vertex writes only its own row.
	ooff := make([]uint32, n+1)
	for v := 0; v < n; v++ {
		ooff[v+1] = ooff[v] + ocnt[v]
	}
	onbr := make([]uint32, ooff[n])
	ok = runMorsels(w, n, g, func(m, lo, hi int) bool {
		edges := 0
		for v := lo; v < hi; v++ {
			out, in := cs.Neighbors(uint32(v)), cs.InNeighbors(uint32(v))
			p := ooff[v]
			mergedCount(uint32(v), out, in, func(u uint32) {
				if rankLess(uint32(v), u) {
					onbr[p] = u
					p++
				}
			})
			edges += len(out) + len(in)
		}
		return g.TickN(edges + (hi - lo))
	})
	if !ok {
		return nil, runError(g)
	}

	// Phase 3: for every oriented edge u -> v, intersect the sorted
	// oriented rows of u and v; each match closes one triangle, and the
	// orientation guarantees each triangle is counted exactly once (at
	// its lowest-ranked corner).
	countPart := make([]int64, nm)
	ok = runMorsels(w, n, g, func(m, lo, hi int) bool {
		c := int64(0)
		work := 0
		for u := lo; u < hi; u++ {
			row := onbr[ooff[u]:ooff[u+1]]
			for _, v := range row {
				c += intersectCount(row, onbr[ooff[v]:ooff[v+1]])
				work += len(row)
			}
		}
		countPart[m] = c
		return g.TickN(work + (hi - lo))
	})
	if !ok {
		return nil, runError(g)
	}
	res.Count = foldInt(countPart)
	return res, nil
}

// mergedCount walks the union of two sorted ascending rows, skipping
// duplicates and the vertex itself, calling visit (when non-nil) for
// every distinct neighbor and returning the distinct count.
func mergedCount(self uint32, a, b []uint32, visit func(uint32)) int {
	n := 0
	emit := func(u uint32) {
		if u == self {
			return
		}
		n++
		if visit != nil {
			visit(u)
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			emit(a[i])
			i++
		case a[i] > b[j]:
			emit(b[j])
			j++
		default:
			emit(a[i])
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		emit(a[i])
	}
	for ; j < len(b); j++ {
		emit(b[j])
	}
	return n
}

// intersectCount returns the size of the intersection of two sorted
// ascending rows.
func intersectCount(a, b []uint32) int64 {
	c := int64(0)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
