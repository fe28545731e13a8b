package graph

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/guard"
)

// morselVertices is the fixed vertex-range size of one morsel. It is a
// constant — never derived from the worker count — so the morsel
// decomposition, and with it the order of every per-morsel
// floating-point fold, is a function of the graph alone. That is the
// load-bearing half of the determinism contract: results are
// byte-identical at Parallelism 1, 4 and 8 because the same morsels
// produce the same partials and the folds always run in morsel order.
const morselVertices = 1024

// numMorsels returns the number of fixed-size morsels covering n
// vertices.
func numMorsels(n int) int {
	return (n + morselVertices - 1) / morselVertices
}

// Budget bounds one projection or algorithm run: MaxWork counts quads
// drained during projection plus vertices and edges touched per
// iteration. It is the shared guard budget under this package's name.
type Budget = guard.Budget

// Runner executes graph algorithms over a CSR.
type Runner struct {
	// Parallelism is the worker count; <= 0 means GOMAXPROCS. Results
	// are identical at every setting.
	Parallelism int
	// Budget bounds each run; see Budget.
	Budget Budget
}

// workers returns the worker count for a run over n vertices: the
// configured Parallelism, capped at one worker per morsel. Every
// per-worker allocation is sized by it, so a huge Parallelism costs
// nothing on a small graph.
func (r Runner) workers(n int) int {
	w := r.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, numMorsels(n)), 1)
}

// runMorsels executes fn over every fixed-size vertex morsel of [0, n)
// using w workers, w as returned by Runner.workers(n). Workers claim
// morsels from a shared atomic counter (work stealing), so the
// assignment of morsels to workers is racy — which is why fn must
// write only per-vertex state inside its own range plus per-morsel
// partial slots, never accumulate across morsels. fn also gets the
// index of the worker running it, in [0, w): scratch indexed by it is
// reused across that worker's morsels and touched by no other worker.
//
// fn reports false to abort (guard violation); the remaining morsels
// are skipped. runMorsels reports whether every morsel completed. At
// w == 1 the claim counter degenerates to a serial loop over the same
// decomposition.
func runMorsels(w, n int, g *guard.Guard, fn func(wk, m, lo, hi int) bool) bool {
	nm := numMorsels(n)
	if nm == 0 {
		return true
	}
	runOne := func(wk, m int) bool {
		if !g.Poll() {
			return false
		}
		lo := m * morselVertices
		hi := lo + morselVertices
		if hi > n {
			hi = n
		}
		return fn(wk, m, lo, hi)
	}
	if w <= 1 {
		for m := 0; m < nm; m++ {
			if !runOne(0, m) {
				return false
			}
		}
		return true
	}

	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			for !stopped.Load() {
				m := int(next.Add(1)) - 1
				if m >= nm {
					return
				}
				if !runOne(wk, m) {
					stopped.Store(true)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	return !stopped.Load()
}

// foldFloat sums per-morsel float partials in morsel order — the
// deterministic reduction used after every parallel phase.
func foldFloat(partials []float64) float64 {
	s := 0.0
	for _, p := range partials {
		s += p
	}
	return s
}

// foldInt sums per-morsel integer partials.
func foldInt(partials []int64) int64 {
	s := int64(0)
	for _, p := range partials {
		s += p
	}
	return s
}

// foldBool ORs per-morsel changed flags.
func foldBool(partials []bool) bool {
	for _, p := range partials {
		if p {
			return true
		}
	}
	return false
}
