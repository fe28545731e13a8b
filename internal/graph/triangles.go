package graph

import (
	"context"
	"math/bits"

	"repro/internal/guard"
)

// TrianglesResult holds the undirected triangle count.
type TrianglesResult struct {
	Count int64
}

// Triangles counts the distinct triangles of the underlying undirected
// simple graph (edge direction and self-loops ignored) with the
// degree-ordered forward algorithm (Schank & Wagner, WEA 2005): every
// undirected edge is oriented from its lower-ranked endpoint to its
// higher-ranked one — rank being (undirected degree, vertex index) —
// which turns each triangle into exactly one wedge u -> v, u -> w with
// an oriented edge v -> w. The orientation bounds each oriented row by
// O(sqrt(E)); the count phase marks u's row in a dense per-worker
// array and counts each v's row by branch-free lookups into it.
// Counting is integer arithmetic folded from per-morsel partials, so
// the result is trivially parallelism-independent.
//
// MaxWork is charged for work done, one TickN per morsel and phase:
// every adjacency entry the orientation reads, every mark set and
// cleared, every lookup, and one unit per vertex per phase.
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
	w := r.workers(n)

	// Phases 1 and 3 mark vertices in a dense array of n bytes per
	// worker — not per morsel, which would be quadratic in n — allocated
	// on the worker's first morsel and left clean by every vertex.
	marks := make([][]uint8, w)
	markOf := func(wk int) []uint8 {
		if marks[wk] == nil {
			marks[wk] = make([]uint8, n)
		}
		return marks[wk]
	}

	// Phase 1: each vertex's undirected row — its out- and in-neighbors,
	// deduplicated, without the vertex itself — written to a slot of
	// len(out)+len(in) entries at slot(cs, v), so no prefix sum is
	// needed. A neighbor is appended unconditionally and kept by
	// advancing past it only when it was not marked yet; v is premarked.
	// udeg[v] is the row's length.
	adj := make([]uint32, len(cs.dst)+len(cs.rsrc))
	udeg := make([]uint32, n)
	ok := runMorsels(w, n, g, func(wk, _, lo, hi int) bool {
		mark := markOf(wk)
		edges := 0
		for v := lo; v < hi; v++ {
			out, in := cs.Neighbors(uint32(v)), cs.InNeighbors(uint32(v))
			row := adj[slot(cs, uint32(v)):]
			mark[v] = 1
			k := 0
			for _, nb := range [2][]uint32{out, in} {
				for _, u := range nb {
					row[k] = u
					k += int(1 - mark[u])
					mark[u] = 1
				}
			}
			for _, u := range row[:k] {
				mark[u] = 0
			}
			mark[v] = 0
			udeg[v] = uint32(k)
			edges += len(out) + len(in)
		}
		return g.TickN(edges + (hi - lo))
	})
	if !ok {
		return nil, runError(g)
	}

	// Phase 2: orient in place — keep the neighbors that outrank v, in
	// row order. A rank is the 64-bit key udeg<<32 | index, and u is kept
	// by advancing past it exactly when subtracting its key from v's
	// borrows. olen[v] is the oriented row's length.
	olen := make([]uint32, n)
	ok = runMorsels(w, n, g, func(_, _, lo, hi int) bool {
		edges := 0
		for v := lo; v < hi; v++ {
			dv := udeg[v]
			row := adj[slot(cs, uint32(v)):][:dv]
			k, rv := 0, uint64(dv)<<32|uint64(v)
			for _, u := range row {
				row[k] = u
				_, outranks := bits.Sub64(rv, uint64(udeg[u])<<32|uint64(u), 0)
				k += int(outranks)
			}
			olen[v] = uint32(k)
			edges += int(dv)
		}
		return g.TickN(edges + (hi - lo))
	})
	if !ok {
		return nil, runError(g)
	}

	// Phase 3: for every vertex u, mark its oriented row, then for every
	// v in it add up the marks under v's oriented row — each hit closes
	// one triangle, counted exactly once at its lowest-ranked corner —
	// and clear the marks again.
	countPart := make([]int64, numMorsels(n))
	ok = runMorsels(w, n, g, func(wk, m, lo, hi int) bool {
		mark := markOf(wk)
		c, work := int64(0), 0
		for u := lo; u < hi; u++ {
			s := slot(cs, uint32(u))
			row := adj[s : s+int(olen[u])]
			for _, v := range row {
				mark[v] = 1
			}
			for _, v := range row {
				s := slot(cs, v)
				for _, x := range adj[s : s+int(olen[v])] {
					c += int64(mark[x])
				}
				work += int(olen[v])
			}
			for _, v := range row {
				mark[v] = 0
			}
			work += 2 * len(row)
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

// slot is where v's row starts in Triangles' scratch adjacency: after
// the rows of every lower vertex, each given room for all its out- and
// in-neighbors.
func slot(cs *CSR, v uint32) int { return int(cs.off[v]) + int(cs.roff[v]) }
