// Package guardtickgraph exercises the guardtick analyzer's
// internal/graph scope. It is analyzed under the import path
// repro/internal/graph with a stand-in CSR type shaped like the
// analytics package's: CSR adjacency reads are the algorithm hot loops,
// and must settle their work through the shared *guard.Guard in the
// same top-level function, exactly like store scans.
package guardtickgraph

import (
	"repro/internal/guard"
	"repro/internal/store"
)

// runtimeGuard is a stand-in for a package-private guard with the same
// method names; only *guard.Guard counts.
type runtimeGuard struct{ n int }

func (g *runtimeGuard) TickN(n int) bool { g.n += n; return true }

type CSR struct {
	off, dst   []uint32
	roff, rsrc []uint32
	w          []float64
}

func (c *CSR) Neighbors(v uint32) []uint32 { return c.dst[c.off[v]:c.off[v+1]] }
func (c *CSR) InNeighbors(v uint32) []uint32 {
	return c.rsrc[c.roff[v]:c.roff[v+1]]
}
func (c *CSR) NeighborWeights(v uint32) []float64 {
	if c.w == nil {
		return nil
	}
	return c.w[c.off[v]:c.off[v+1]]
}
func (c *CSR) NumVertices() int { return len(c.off) - 1 }

// badGather walks every in-edge with no guard in sight: a full
// iteration blind to cancellation and MaxWork.
func badGather(cs *CSR, rank []float64) float64 {
	var sum float64
	for v := 0; v < cs.NumVertices(); v++ {
		for _, u := range cs.InNeighbors(uint32(v)) { // want "store scan without a budget-guard tick"
			sum += rank[u]
		}
	}
	return sum
}

// badWeighted reads the weight rows, which count as adjacency too.
func badWeighted(cs *CSR, v uint32) float64 {
	var sum float64
	for _, w := range cs.NeighborWeights(v) { // want "store scan without a budget-guard tick"
		sum += w
	}
	return sum
}

// badDrain drains a snapshot cursor without the tick.
func badDrain(st *store.Store, p store.Pattern) int {
	cur := st.Cursor(p) // want "store scan without a budget-guard tick"
	defer cur.Close()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			return n
		}
		n++
	}
}

// badViewDrain scans a consistent view — the projection's and the
// patcher's row source — blind.
func badViewDrain(v *store.View, p store.Pattern) int {
	n := 0
	v.ScanBatch(p, 1024, func(b []store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n += len(b)
		return true
	})
	return n
}

// goodViewDrain is the projection's shape: one tickN per batch, inside
// the scan callback.
func goodViewDrain(g *guard.Guard, v *store.View, p store.Pattern) int {
	n := 0
	v.ScanBatch(p, 1024, func(b []store.IDQuad) bool {
		n += len(b)
		return g.TickN(len(b))
	})
	return n
}

// goodGather settles the morsel's edge work with one tickN, the
// batched form the real algorithm phases use.
func goodGather(g *guard.Guard, cs *CSR, rank []float64, lo, hi int) (float64, bool) {
	var sum float64
	edges := 0
	for v := lo; v < hi; v++ {
		in := cs.InNeighbors(uint32(v))
		edges += len(in)
		for _, u := range in {
			sum += rank[u]
		}
	}
	return sum, g.TickN(edges)
}

// goodDrain ticks cursor rows as they are drained, in the same
// function that opened the cursor.
func goodDrain(g *guard.Guard, st *store.Store, p store.Pattern) int {
	cur := st.Cursor(p)
	defer cur.Close()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			return n
		}
		if !g.TickN(1) {
			return n
		}
		n++
	}
}

// goodNestedClosure ticks from inside a worker closure; the analyzer
// accepts any guard consultation within the same top-level function.
func goodNestedClosure(g *guard.Guard, cs *CSR) int {
	total := 0
	walk := func(v uint32) {
		row := cs.Neighbors(v)
		total += len(row)
		g.TickN(len(row))
	}
	for v := 0; v < cs.NumVertices(); v++ {
		walk(uint32(v))
	}
	return total
}

// badPrivateGuard settles the edge work through a look-alike guard the
// analyzer does not accept.
func badPrivateGuard(g *runtimeGuard, cs *CSR, lo, hi int) bool {
	edges := 0
	for v := lo; v < hi; v++ {
		edges += len(cs.Neighbors(uint32(v))) // want "store scan without a budget-guard tick"
	}
	return g.TickN(edges)
}

// goodPolledMorsel polls between vertices and settles at the end.
func goodPolledMorsel(g *guard.Guard, cs *CSR, lo, hi int) bool {
	edges := 0
	for v := lo; v < hi; v++ {
		if !g.Poll() {
			return false
		}
		edges += len(cs.InNeighbors(uint32(v)))
	}
	return g.TickN(edges)
}

// suppressedDegree reads one row's length for a report, not a run.
func suppressedDegree(cs *CSR, v uint32) int {
	//pgrdfvet:ignore guardtick -- reporting a single row's size outside any algorithm run
	return len(cs.Neighbors(v))
}
