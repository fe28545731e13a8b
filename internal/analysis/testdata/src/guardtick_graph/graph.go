// Package guardtickgraph exercises the guardtick analyzer's
// internal/graph scope. It is analyzed under the import path
// repro/internal/graph with stand-in guard and CSR types shaped like
// the analytics package's: CSR adjacency reads are the algorithm hot
// loops, and must settle their work through the guard in the same
// top-level function, exactly like store scans.
package guardtickgraph

import "repro/internal/store"

type guard struct{ n int }

func (g *guard) tickN(n int) bool { g.n += n; return true }
func (g *guard) poll() bool       { return true }

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
		batch := cur.NextBatch(1024) // want "store scan without a budget-guard tick"
		if len(batch) == 0 {
			return n
		}
		n += len(batch)
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
func goodViewDrain(g *guard, v *store.View, p store.Pattern) int {
	n := 0
	v.ScanBatch(p, 1024, func(b []store.IDQuad) bool {
		n += len(b)
		return g.tickN(len(b))
	})
	return n
}

// goodGather settles the morsel's edge work with one tickN, the
// batched form the real algorithm phases use.
func goodGather(g *guard, cs *CSR, rank []float64, lo, hi int) (float64, bool) {
	var sum float64
	edges := 0
	for v := lo; v < hi; v++ {
		in := cs.InNeighbors(uint32(v))
		edges += len(in)
		for _, u := range in {
			sum += rank[u]
		}
	}
	return sum, g.tickN(edges)
}

// goodDrain ticks cursor batches as they are drained, in the same
// function that opened the cursor.
func goodDrain(g *guard, st *store.Store, p store.Pattern) int {
	cur := st.Cursor(p)
	defer cur.Close()
	n := 0
	for {
		batch := cur.NextBatch(1024)
		if len(batch) == 0 {
			return n
		}
		if !g.tickN(len(batch)) {
			return n
		}
		n += len(batch)
	}
}

// goodNestedClosure ticks from inside a worker closure; the analyzer
// accepts any guard consultation within the same top-level function.
func goodNestedClosure(g *guard, cs *CSR) int {
	total := 0
	walk := func(v uint32) {
		row := cs.Neighbors(v)
		total += len(row)
		g.tickN(len(row))
	}
	for v := 0; v < cs.NumVertices(); v++ {
		walk(uint32(v))
	}
	return total
}
