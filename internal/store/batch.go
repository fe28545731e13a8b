package store

// Batched scan API: the store-side half of the engine's vectorized
// executor (DESIGN.md §15). The row-at-a-time Scan/Next paths pay a
// callback (or method call) per quad; at millions of intermediate rows
// the dispatch dominates the work. The batch entry points below hand
// the caller contiguous runs of matching rows instead — zero-copy
// subslices of the sorted index (or cursor snapshot) — so the tight
// per-row loops live next to the index layout and the caller amortizes
// its own bookkeeping (guard ticks, profile counters) to one update
// per batch.

// DefaultBatchRows is the batch capacity callers use unless they have a
// reason not to: large enough to amortize per-batch costs, small enough
// to stay cache-resident (1024 quads = 40 KiB).
const DefaultBatchRows = 1024

// ScanRangeBatch calls fn with consecutive runs of rows from the morsel
// r that match p and are not tombstoned in dead (nil means no
// tombstones), in key order. Each run is a subslice of the index's row
// array, at most max rows long (max <= 0 means DefaultBatchRows); fn
// must not mutate it or retain it past the callback — like ScanRange,
// the caller is expected to hold the store's read lock for the duration
// of the scan. It returns false if fn stopped the scan early.
//
// Visiting the ranges of Partitions(p, n) in order yields exactly the
// rows Scan(p, fn) visits from the index, in the same order — the batch
// boundary placement is the only difference.
func (ix *Index) ScanRangeBatch(r RowRange, p Pattern, dead map[IDQuad]struct{}, max int, fn func([]IDQuad) bool) bool {
	if max <= 0 {
		max = DefaultBatchRows
	}
	lo, hi := r.Lo, r.Hi
	if hi > len(ix.rows) {
		hi = len(ix.rows)
	}
	i := lo
	for i < hi {
		if !p.Matches(ix.rows[i]) {
			i++
			continue
		}
		if _, gone := dead[ix.rows[i]]; gone {
			i++
			continue
		}
		// Extend the run of consecutive live matches.
		j := i + 1
		lim := i + max
		if lim > hi {
			lim = hi
		}
		for j < lim && p.Matches(ix.rows[j]) {
			if _, gone := dead[ix.rows[j]]; gone {
				break
			}
			j++
		}
		if !fn(ix.rows[i:j]) {
			return false
		}
		i = j
	}
	return true
}

// ScanBatch is the batched counterpart of Scan on a single index: it
// resolves the bound key prefix to a row range and emits runs via
// ScanRangeBatch, updating the same access-path statistics as Scan.
// It returns false if fn stopped the scan early.
func (ix *Index) ScanBatch(p Pattern, dead map[IDQuad]struct{}, max int, fn func([]IDQuad) bool) bool {
	n := ix.prefixLen(p)
	lo, hi := 0, len(ix.rows)
	if n > 0 {
		lo, hi = ix.rangeOf(p, n)
		ix.rangeScans.Add(1)
	} else {
		ix.fullScans.Add(1)
	}
	return ix.ScanRangeBatch(RowRange{Lo: lo, Hi: hi}, p, dead, max, fn)
}

// ScanBatch calls fn with runs of at most max quads matching the
// pattern (max <= 0 means DefaultBatchRows), choosing the best index
// automatically. It visits exactly the rows Scan visits, in the same
// order: sorted index rows first (tombstones skipped), then the
// unmerged delta buffer. Index runs are zero-copy subslices valid only
// during the callback; delta rows are staged through a scratch buffer
// that is reused between callbacks, so fn must not retain its argument
// either way. fn returning false stops the scan.
//
// When a FaultInjector is installed the scan degrades to the row path
// internally (the injector observes individual rows), preserving
// per-row fault semantics at batch-call granularity.
func (s *Store) ScanBatch(p Pattern, max int, fn func([]IDQuad) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scanBatchLocked(p, max, fn)
}

//pgrdf:locks mu
func (s *Store) scanBatchLocked(p Pattern, max int, fn func([]IDQuad) bool) {
	if max <= 0 {
		max = DefaultBatchRows
	}
	if s.fault.Load() != nil {
		s.scanBatchFaultLocked(p, max, fn)
		return
	}
	ix := s.chooseIndexLocked(p)
	if !ix.ScanBatch(p, s.dead, max, fn) {
		return
	}
	if len(s.delta) == 0 {
		return
	}
	// Delta rows are appended out of index order, so they cannot be
	// handed out as subslices of a sorted run; stage them in a scratch
	// batch. Rows deleted while still in the delta are removed from the
	// delta itself (never tombstoned), so no dead-check here — exactly
	// like scanLocked.
	var buf []IDQuad // allocated by the first match: most scans have none
	for _, q := range s.delta {
		if !p.Matches(q) {
			continue
		}
		if buf == nil {
			buf = make([]IDQuad, 0, max)
		}
		buf = append(buf, q)
		if len(buf) == max {
			if !fn(buf) {
				return
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		fn(buf)
	}
}

// scanBatchFaultLocked bridges the fault-injected row scan into
// batches: every row still passes through the injector's per-row hook.
//
//pgrdf:locks mu
func (s *Store) scanBatchFaultLocked(p Pattern, max int, fn func([]IDQuad) bool) {
	buf := make([]IDQuad, 0, max)
	stopped := false
	s.scanLocked(p, func(q IDQuad) bool {
		buf = append(buf, q)
		if len(buf) == max {
			if !fn(buf) {
				stopped = true
				return false
			}
			buf = buf[:0]
		}
		return true
	})
	if !stopped && len(buf) > 0 {
		fn(buf)
	}
}

// NextBatch returns up to max of the cursor's remaining rows (max <= 0
// means DefaultBatchRows) as a zero-copy subslice of the snapshot,
// advancing the cursor past them. It returns nil once the cursor is
// exhausted or closed. The snapshot is immutable and privately owned,
// so the returned slice stays valid after further NextBatch/Close
// calls; callers must still not mutate it (sub-cursors from Partitions
// share the underlying array).
func (c *Cursor) NextBatch(max int) []IDQuad {
	if c.closed || c.pos >= len(c.rows) {
		return nil
	}
	if max <= 0 {
		max = DefaultBatchRows
	}
	end := c.pos + max
	if end > len(c.rows) {
		end = len(c.rows)
	}
	out := c.rows[c.pos:end]
	c.pos = end
	return out
}
