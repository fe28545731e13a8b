package graph

import (
	"context"

	"repro/internal/guard"
)

// WCCResult labels every vertex with the smallest vertex index of its
// weakly-connected component.
type WCCResult struct {
	// Labels maps vertex -> component representative (the minimum
	// vertex index in the component, i.e. Labels[rep] == rep).
	Labels     []uint32
	Components int
	Iterations int
}

// WCC computes weakly-connected components by min-label propagation
// with pointer jumping: each round every vertex takes the minimum of
// its own label, its label's label (the jump, which collapses long
// chains in O(log n) rounds), and the labels of its neighbors in both
// directions. Labels only decrease, all reads go to the immutable
// previous-round buffer, and every next[v] has exactly one writer, so
// the fixpoint — and every intermediate round — is identical at any
// Parallelism. At the fixpoint adjacent vertices must share a label,
// and since labels start as vertex indexes and only ever decrease to
// another label in the same component, the shared label is the
// component's minimum index.
func (r Runner) WCC(ctx context.Context, cs *CSR) (res *WCCResult, err error) {
	defer guard.Recover(&err)
	if !cs.HasReverse() {
		return nil, &guard.Error{Kind: guard.ErrInternal, Msg: "WCC requires a CSR with a reverse adjacency (ProjectOptions.Reverse)"}
	}
	g, cancel, err := guard.Start(ctx, r.Budget)
	if err != nil {
		return nil, err
	}
	defer cancel()

	n := cs.NumVertices()
	res = &WCCResult{Labels: make([]uint32, n)}
	if n == 0 {
		return res, nil
	}
	w := r.workers()
	nm := numMorsels(n)

	cur := res.Labels
	for v := range cur {
		cur[v] = uint32(v)
	}
	next := make([]uint32, n)
	changedPart := make([]bool, nm)

	for {
		ok := runMorsels(w, n, g, func(_, m, lo, hi int) bool {
			changed := false
			edges := 0
			for v := lo; v < hi; v++ {
				lbl := cur[v]
				if j := cur[lbl]; j < lbl {
					lbl = j
				}
				out := cs.Neighbors(uint32(v))
				for _, u := range out {
					if cur[u] < lbl {
						lbl = cur[u]
					}
				}
				in := cs.InNeighbors(uint32(v))
				for _, u := range in {
					if cur[u] < lbl {
						lbl = cur[u]
					}
				}
				edges += len(out) + len(in)
				next[v] = lbl
				if lbl != cur[v] {
					changed = true
				}
			}
			changedPart[m] = changed
			return g.TickN(edges + (hi - lo))
		})
		if !ok {
			return nil, runError(g)
		}
		cur, next = next, cur
		res.Iterations++
		if !foldBool(changedPart) {
			break
		}
	}
	res.Labels = cur
	for v, lbl := range cur {
		if lbl == uint32(v) {
			res.Components++
		}
	}
	return res, nil
}
