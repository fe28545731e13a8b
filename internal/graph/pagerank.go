package graph

import (
	"context"
	"math"

	"repro/internal/guard"
)

// PageRankOptions tune the PageRank iteration. Zero values select the
// conventional defaults.
type PageRankOptions struct {
	// Damping is the damping factor d; 0 selects 0.85.
	Damping float64
	// MaxIterations caps the number of power iterations; 0 selects 50.
	MaxIterations int
	// Tolerance stops the iteration once the L1 delta between
	// consecutive rank vectors falls to or below it; 0 selects 1e-6.
	// Negative disables early convergence.
	Tolerance float64
	// Weighted distributes rank along out-edges proportionally to the
	// projected edge weights instead of uniformly. Requires a CSR
	// projected with a WeightKey.
	Weighted bool
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 50
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	return o
}

// PageRankResult holds the converged rank vector, indexed by vertex.
type PageRankResult struct {
	Scores     []float64
	Iterations int
	Converged  bool
}

// PageRank runs power iteration over the reverse adjacency: each
// iteration first scatters per-vertex contributions cur[u]/outWeight[u]
// into an immutable buffer, then every vertex gathers its in-edges into
// the next buffer (pull form — each next[v] has exactly one writer, so
// workers share no mutable state). Dangling mass and the convergence
// delta are folded from per-morsel partials in morsel order, keeping
// the floating-point result byte-identical at every Parallelism.
func (r Runner) PageRank(ctx context.Context, cs *CSR, opts PageRankOptions) (res *PageRankResult, err error) {
	defer guard.Recover(&err)
	if !cs.HasReverse() {
		return nil, &guard.Error{Kind: guard.ErrInternal, Msg: "PageRank requires a CSR with a reverse adjacency (ProjectOptions.Reverse)"}
	}
	if opts.Weighted && !cs.Weighted() {
		return nil, &guard.Error{Kind: guard.ErrInternal, Msg: "weighted PageRank requires a CSR projected with a WeightKey"}
	}
	opts = opts.withDefaults()
	g, cancel, err := guard.Start(ctx, r.Budget)
	if err != nil {
		return nil, err
	}
	defer cancel()

	n := cs.NumVertices()
	if n == 0 {
		return &PageRankResult{Scores: []float64{}, Converged: true}, nil
	}
	w := r.workers()
	nm := numMorsels(n)

	// outW[u] is the total weight leaving u: the out-degree when
	// unweighted, the row's weight sum (in row order) when weighted.
	outW := make([]float64, n)
	ok := runMorsels(w, n, g, func(_, m, lo, hi int) bool {
		for v := lo; v < hi; v++ {
			if opts.Weighted {
				s := 0.0
				for _, ew := range cs.NeighborWeights(uint32(v)) {
					s += ew
				}
				outW[v] = s
			} else {
				outW[v] = float64(cs.OutDegree(uint32(v)))
			}
		}
		return g.TickN(hi - lo)
	})
	if !ok {
		return nil, runError(g)
	}

	inv := 1.0 / float64(n)
	cur := make([]float64, n)
	for v := range cur {
		cur[v] = inv
	}
	next := make([]float64, n)
	contrib := make([]float64, n)
	danglingPart := make([]float64, nm)
	deltaPart := make([]float64, nm)

	res = &PageRankResult{}
	for it := 0; it < opts.MaxIterations; it++ {
		// Phase A: scatter contributions, collect dangling mass.
		ok := runMorsels(w, n, g, func(_, m, lo, hi int) bool {
			d := 0.0
			for v := lo; v < hi; v++ {
				if outW[v] > 0 {
					contrib[v] = cur[v] / outW[v]
				} else {
					contrib[v] = 0
					d += cur[v]
				}
			}
			danglingPart[m] = d
			return g.TickN(hi - lo)
		})
		if !ok {
			return nil, runError(g)
		}
		base := (1-opts.Damping)*inv + opts.Damping*foldFloat(danglingPart)*inv

		// Phase B: gather in-edges; one writer per next[v].
		ok = runMorsels(w, n, g, func(_, m, lo, hi int) bool {
			dl := 0.0
			edges := 0
			for v := lo; v < hi; v++ {
				s := 0.0
				in := cs.InNeighbors(uint32(v))
				if opts.Weighted {
					iw := cs.InNeighborWeights(uint32(v))
					for i, u := range in {
						s += contrib[u] * iw[i]
					}
				} else {
					for _, u := range in {
						s += contrib[u]
					}
				}
				edges += len(in)
				nv := base + opts.Damping*s
				next[v] = nv
				dl += math.Abs(nv - cur[v])
			}
			deltaPart[m] = dl
			return g.TickN(edges + (hi - lo))
		})
		if !ok {
			return nil, runError(g)
		}
		cur, next = next, cur
		res.Iterations = it + 1
		if delta := foldFloat(deltaPart); opts.Tolerance >= 0 && delta <= opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Scores = cur
	return res, nil
}

// runError resolves the abort cause of a morsel phase: the latched
// guard violation, or an internal error if a worker aborted without
// one (which would indicate a runtime bug).
func runError(g *guard.Guard) error {
	if err := g.Err(); err != nil {
		return err
	}
	return &guard.Error{Kind: guard.ErrInternal, Msg: "morsel phase aborted without a guard violation"}
}
