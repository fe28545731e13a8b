package sparql

// Morsel-driven intra-query parallelism (DESIGN.md §10).
//
// The engine parallelizes the scan-heavy plan shapes the paper singles
// out as expensive (multi-hop traversals and triangle counting, Tables
// 5–9): the driving scan of a BGP is split into contiguous key ranges
// of the pinned View (store.View.Morsels — morsels, no rows copied), a
// small worker pool claims morsels from a shared
// counter (work stealing), and every worker runs the serial batch join
// driver (vecExec) over its morsel — probing the shared, lazily built
// hash tables. Completed batches travel back to the coordinating
// goroutine in per-morsel channels and are merged strictly in morsel
// order, so the emitted row order is byte-identical to the serial
// driver's; a plan that consumes rows order-insensitively fans them in
// by completion order instead.
//
// Workers honor the guard exactly like the serial path: every scanned
// row ticks the shared (atomic) guard, every recursion step polls it,
// and the first violation from any worker latches and unwinds all of
// them. Worker goroutines always exit before the driving operator
// returns — there is no detached work — which the leak-gauge tests
// assert via Engine.ParallelStats().ActiveWorkers.

import (
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

const (
	// parallelScanMinRows is the minimum estimated size of a BGP's
	// driving scan before the executor fans it out to workers; below
	// it, goroutine and merge overhead dominates the work.
	parallelScanMinRows = 2048
	// morselsPerWorker cuts morsels finer than the worker count so
	// stragglers rebalance through the shared claim counter.
	morselsPerWorker = 4
	// tickBatchRows is how many scanned rows a hash-build worker
	// accumulates before ticking the shared guard in one TickN batch.
	tickBatchRows = 1024
	// parallelBFSMinFrontier is the path-search frontier width below
	// which expansion stays serial.
	parallelBFSMinFrontier = 64
)

// parallelStats are the engine's cumulative intra-query parallelism
// counters, surfaced through /stats and Engine.ParallelStats.
type parallelStats struct {
	queries       atomic.Int64 // queries that ran at least one parallel stage
	workers       atomic.Int64 // worker goroutines launched
	morsels       atomic.Int64 // morsels (scan partitions) executed
	hashBuilds    atomic.Int64 // partitioned hash-table builds
	activeWorkers atomic.Int64 // live worker goroutines (leak gauge)
}

// markParallel flags the current query as parallel (once) and records
// a worker-pool launch.
func (ec *execCtx) markParallel(workers, morsels int) {
	if ec.pstats == nil {
		return
	}
	if ec.parallelFlagged != nil && ec.parallelFlagged.CompareAndSwap(false, true) {
		ec.pstats.queries.Add(1)
	}
	ec.pstats.workers.Add(int64(workers))
	ec.pstats.morsels.Add(int64(morsels))
}

// workerEnter / workerExit bracket every worker goroutine for the
// active-worker leak gauge.
func (ec *execCtx) workerEnter() {
	if ec.pstats != nil {
		ec.pstats.activeWorkers.Add(1)
	}
}

func (ec *execCtx) workerExit() {
	if ec.pstats != nil {
		ec.pstats.activeWorkers.Add(-1)
	}
}

// acquireWorkers claims up to want worker slots from the query's budget
// without blocking; the caller must release what it got. Nested
// parallel stages (a path closure inside a BGP morsel, a sub-select)
// therefore degrade to serial execution instead of oversubscribing.
func (ec *execCtx) acquireWorkers(want int) int {
	if ec.slots == nil {
		return 0
	}
	got := 0
	for got < want {
		select {
		case ec.slots <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

func (ec *execCtx) releaseWorkers(n int) {
	for i := 0; i < n; i++ {
		<-ec.slots
	}
}

// morsels splits the rows matching p (restricted to the dataset's
// models where the restriction can be pushed into the pattern) into at
// most n morsels, polling the guard first so a tripped query never
// fans out. A multi-model subset cannot be pushed down; workers filter
// those rows via rowVisible.
func (ec *execCtx) morsels(p store.Pattern, n int) []store.Morsel {
	if !ec.guard.Poll() {
		return nil
	}
	if ec.models != nil && ec.singleModel != store.NoID {
		p.M = ec.singleModel
	}
	return ec.view.Morsels(p, n)
}

// rowVisible applies the dataset restriction morsels could not push
// down into their pattern.
func (ec *execCtx) rowVisible(q store.IDQuad) bool {
	if ec.models == nil || ec.singleModel != store.NoID {
		return true
	}
	_, ok := ec.models[q.M]
	return ok
}

// tryParallelBatch fans the first join step's scan for one input
// binding out to morsel workers when it is big enough and worker slots
// are free, emitting batches through the merge. It reports
// handled=false when the caller should run the binding serially.
func (sh *bgpShared) tryParallelBatch(b binding, yield func(*colBatch) bool) (handled, cont bool) {
	ec := sh.ec
	// A fused first step intersects whole ranges per input binding:
	// there is no driving scan to partition.
	if len(sh.order) == 0 || sh.intersect != nil && sh.intersect[0] != nil {
		return false, true
	}
	if !ec.guard.Poll() {
		return true, false
	}
	for _, f := range sh.filterAt[0] {
		v, err := evalBool(ec, f.cond, b)
		if err != nil || !v {
			return true, true // filtered out, like the serial step(0, b)
		}
	}
	rp := &sh.rps[sh.order[0]]
	pat := rp.boundPattern(b)
	// Uncached estimate: bound patterns can carry per-query overlay IDs
	// (VALUES/BIND terms), which must not leak into the shared cache.
	if ec.view.EstimateCount(pat) < parallelScanMinRows {
		return false, true
	}
	workers := ec.acquireWorkers(ec.parallelism)
	if workers < 2 {
		ec.releaseWorkers(workers)
		return false, true
	}
	defer ec.releaseWorkers(workers)
	// The driver replaces the serial run(b) for this binding; keep the
	// step-0 input accounting consistent for later serial bindings.
	sh.inputSeen[0].Add(1)
	return true, sh.runParallelBatch(b, rp, pat, workers, yield)
}

// runParallelBatch executes one input binding's join tree with a
// partitioned first-step scan, morsels handing whole batches through
// the merge. In ordered mode the merge drains per-morsel channels
// strictly in morsel order (byte-identical to serial); when the query
// consumes results order-insensitively (ec.unordered, see
// orderInsensitive) batches fan in by completion order instead and the
// merge cost disappears. It returns false when the consumer stopped or
// the guard tripped.
func (sh *bgpShared) runParallelBatch(b binding, rp *resolvedPattern, pat store.Pattern, workers int, yield func(*colBatch) bool) bool {
	ec := sh.ec
	morsels := ec.morsels(pat, workers*morselsPerWorker)
	if morsels == nil {
		return false // guard tripped before the split
	}
	ec.markParallel(workers, len(morsels))
	if sh.bgpStage != nil {
		sh.bgpStage.morsels.Add(int64(len(morsels)))
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		stopOnce sync.Once
		stopped  = make(chan struct{})
		wg       sync.WaitGroup
	)
	halt := func() {
		stop.Store(true)
		stopOnce.Do(func() { close(stopped) })
	}

	// Fan-in plumbing: ordered mode gives each morsel its own bounded
	// channel; unordered mode shares one channel among all workers.
	unordered := ec.unordered
	var outs []chan *colBatch
	var shared chan *colBatch
	if unordered {
		shared = make(chan *colBatch, workers*2)
	} else {
		outs = make([]chan *colBatch, len(morsels))
		for i := range outs {
			outs[i] = make(chan *colBatch, 2)
		}
	}

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec.workerEnter()
			defer ec.workerExit()
			base := b.clone()
			vx := newVecExec(sh, len(base))
			for !stop.Load() {
				k := int(next.Add(1) - 1)
				if k >= len(morsels) {
					return
				}
				out := shared
				if !unordered {
					out = outs[k]
				}
				sh.processMorselBatch(vx, base, rp, &morsels[k], out, !unordered, stopped, &stop)
			}
		}()
	}

	ok := true
	if unordered {
		// Completion-order fan-in: a closer goroutine seals the shared
		// channel once every worker has joined; the drain loop below is
		// the channel handshake that joins the closer itself.
		go func() {
			wg.Wait()
			close(shared)
		}()
		for cb := range shared {
			if !yield(cb) {
				ok = false
				halt()
				break
			}
		}
		halt()
		for range shared {
			// Drain until the closer seals the channel, so no worker
			// stays blocked on a send and the closer always exits.
		}
	} else {
		// Order-preserving merge: drain the per-morsel channels strictly
		// in morsel order, so emission order equals one serial scan over
		// the same snapshot.
	merge:
		for _, ch := range outs {
			for cb := range ch {
				if !yield(cb) {
					ok = false
					halt()
					break merge
				}
			}
		}
		halt()
	}
	wg.Wait()
	if ec.guard.Err() != nil {
		return false
	}
	return ok
}

// processMorselBatch runs the vectorized join pipeline over one morsel
// of the first step's scan, sending finished batches (privately copied)
// to the merge. In ordered mode it always closes its output channel.
func (sh *bgpShared) processMorselBatch(vx *vecExec, base binding, rp *resolvedPattern, m *store.Morsel, out chan<- *colBatch, closeOut bool, stopped <-chan struct{}, stop *atomic.Bool) {
	if closeOut {
		defer close(out)
	}
	ec := sh.ec
	pst := sh.stepStat(0)
	vx.prepare(base)
	vx.cap = vecRampStart
	vx.emit = func(cb *colBatch) bool {
		select {
		case out <- cb.copyOwned():
			return true
		case <-stopped:
			return false
		}
	}
	scratch := vx.scratch[0]
	ob, c := vx.out[0], vx.collapse[0]
	// Profiling counts into locals, flushed in one atomic per morsel;
	// guard charges batch up in pending, flushed once per run.
	var scanned, emitted, collapsed int64
	pending := 0
	ok := true
	defer func() {
		pst.addTicks(scanned)
		pst.addRows(emitted)
		pst.addCollapsed(collapsed)
	}()
	m.ScanBatch(batchRows, func(run []store.IDQuad) bool {
		if stop.Load() {
			ok = false
			return false
		}
		for _, q := range run {
			// The split pushed a single-model restriction into its
			// pattern; rowVisible filters the multi-model case.
			if !ec.rowVisible(q) {
				continue
			}
			scanned++
			pending++
			if !rp.matchesGraphCtx(q) {
				continue
			}
			if !rp.bindQuad(scratch, q, &vx.undo[0]) {
				continue
			}
			if c == nil || !c.merge(ob, scratch, 1) {
				ob.appendFrom(scratch, 1)
				emitted++
			} else {
				collapsed++
			}
			vx.undo[0].revert(scratch)
			if ob.n >= vx.limit(c) {
				if !ec.guard.TickN(pending) {
					pending, ok = 0, false
					return false
				}
				pending = 0
				if !vx.descend(0, 1) {
					ok = false
					return false
				}
				vx.grow()
			}
		}
		if !ec.guard.TickN(pending) {
			pending, ok = 0, false
			return false
		}
		pending = 0
		return true
	})
	if ok && ob.n > 0 {
		vx.descend(0, 1)
	}
}

// parallelHashBuild populates hs.table from the morsels of the
// pattern's constant-bound scan. Each worker builds a partial table
// over its partition; partials are merged in partition order, so every
// bucket's row order equals the serially built bucket's. Budget ticks
// are batched through guard.TickN. Reports false when no worker slots
// were free (the caller then builds serially). Called with hs.mu held.
//
//pgrdf:locks hs.mu
func (ec *execCtx) parallelHashBuild(rp *resolvedPattern, hs *hashState, pst *profStage) bool {
	workers := ec.acquireWorkers(ec.parallelism)
	if workers < 2 {
		ec.releaseWorkers(workers)
		return false
	}
	defer ec.releaseWorkers(workers)
	parts := ec.morsels(rp.constPattern(), workers)
	if parts == nil {
		return true // guard tripped; the empty table unwinds with it
	}
	ec.markParallel(workers, len(parts))
	if ec.pstats != nil {
		ec.pstats.hashBuilds.Add(1)
	}
	if pst != nil {
		pst.morsels.Add(int64(len(parts)))
	}
	partials := make([]map[[4]store.ID][]store.IDQuad, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int, part *store.Morsel) {
			defer wg.Done()
			ec.workerEnter()
			defer ec.workerExit()
			m := make(map[[4]store.ID][]store.IDQuad)
			pending := 0
			ok := true
			part.ScanBatch(batchRows, func(run []store.IDQuad) bool {
				for _, q := range run {
					if !ec.rowVisible(q) {
						continue
					}
					pending++
					if !rp.matchesGraphCtx(q) {
						continue
					}
					//pgrdfvet:ignore guardedby -- keyPos is frozen by buildHash (which holds hs.mu) before workers start
					key := hs.keyOf(q)
					m[key] = append(m[key], q)
				}
				if pending >= tickBatchRows {
					if ok = ec.guard.TickN(pending); !ok {
						return false
					}
					pst.addTicks(int64(pending))
					pending = 0
				}
				return true
			})
			if !ok || !ec.guard.TickN(pending) {
				return
			}
			pst.addTicks(int64(pending))
			partials[i] = m
		}(i, &parts[i])
	}
	wg.Wait()
	for _, m := range partials {
		if m == nil {
			continue // worker aborted: the guard has latched, the query unwinds
		}
		for k, rows := range m {
			hs.table[k] = append(hs.table[k], rows...)
		}
	}
	return true
}
