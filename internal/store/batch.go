package store

import "sort"

// The scan kernel: every read of a store version — row callbacks,
// batches, cursors, snapshots, compaction — is one merge of an index's
// sorted base range with its sorted delta range (DESIGN.md §15, §18).
// Rows are handed out as contiguous runs: zero-copy subslices of the
// base array wherever no delta entry intervenes, so the tight per-row
// loops live next to the index layout and the caller amortizes its own
// bookkeeping (guard ticks, profile counters) to one update per batch.

// DefaultBatchRows is the batch capacity callers use unless they have a
// reason not to: large enough to amortize per-batch costs, small enough
// to stay cache-resident (1024 quads = 40 KiB).
const DefaultBatchRows = 1024

// ScanBatch calls fn with runs of at most max quads matching the
// pattern (max <= 0 means DefaultBatchRows), in the key order of the
// index chosen for it. It visits exactly the rows Scan visits, in the
// same order. A run is valid only during the callback — it is a
// subslice of the version's base array or a scratch buffer reused
// between callbacks — and must not be mutated. fn returning false stops
// the scan. No lock is held: fn may scan the view again.
//
// An installed FaultInjector observes every row of a run before fn
// sees the run.
func (v *View) ScanBatch(p Pattern, max int, fn func([]IDQuad) bool) {
	v.chooseRun(p).scan(p, max, v.st.faultWrap(fn))
}

// scan resolves the bound key prefix of p to a base and a delta range,
// counts the access path, and merges the two.
func (r *run) scan(p Pattern, max int, fn func([]IDQuad) bool) {
	if max <= 0 {
		max = DefaultBatchRows
	}
	n := r.ix.prefixLen(p)
	if n > 0 {
		r.ix.rangeScans.Add(1)
	} else {
		r.ix.fullScans.Add(1)
	}
	lo, hi := r.baseRange(p, n)
	from, to := r.deltaRange(p, n)
	if n == p.bound() {
		p = AnyPattern() // the prefix range is the answer: nothing left to filter
	}
	r.merge(r.base[lo:hi], from, to, p, max, fn)
}

// merge emits, in key order and in runs of at most max, the rows
// matching p among base (a range of r.base) and the delta entries in
// [from, to) covering the same key range: a tombstone suppresses its
// equal base row, an insert is staged into a scratch run. It reports
// false when fn stopped it.
func (r *run) merge(base []IDQuad, from, to dpos, p Pattern, max int, fn func([]IDQuad) bool) bool {
	var staged []IDQuad
	flush := func() bool {
		ok := len(staged) == 0 || fn(staged)
		staged = staged[:0]
		return ok
	}
	for at := from; at != to; at = r.delta.next(at) {
		e := r.delta[at.c].e[at.i]
		if k := r.gallop(base, e.q); k > 0 {
			if !flush() || !emitRuns(base[:k], p, max, fn) {
				return false
			}
			base = base[k:]
		}
		switch {
		case e.tomb:
			base = base[1:]
		case p.Matches(e.q):
			if staged = append(staged, e.q); len(staged) == max && !flush() {
				return false
			}
		}
	}
	return flush() && emitRuns(base, p, max, fn)
}

// gallop returns the number of leading rows that sort before q. The
// merge advances through a range one delta entry at a time, so the
// answer is usually near the front: probe at doubling distances, then
// binary-search the last gap.
func (r *run) gallop(rows []IDQuad, q IDQuad) int {
	if len(rows) == 0 || !r.ix.less(rows[0], q) {
		return 0
	}
	lo, step := 0, 1 // rows[lo] sorts before q
	for lo+step < len(rows) && r.ix.less(rows[lo+step], q) {
		lo += step
		step *= 2
	}
	gap := rows[lo+1 : min(lo+step, len(rows))]
	return lo + 1 + sort.Search(len(gap), func(i int) bool { return !r.ix.less(gap[i], q) })
}

// emitRuns hands fn the maximal runs of consecutive rows matching p, cut
// at max rows.
func emitRuns(rows []IDQuad, p Pattern, max int, fn func([]IDQuad) bool) bool {
	if p == AnyPattern() {
		for len(rows) > max {
			if !fn(rows[:max]) {
				return false
			}
			rows = rows[max:]
		}
		return len(rows) == 0 || fn(rows)
	}
	for i := 0; i < len(rows); {
		if !p.Matches(rows[i]) {
			i++
			continue
		}
		j, lim := i+1, min(i+max, len(rows))
		for j < lim && p.Matches(rows[j]) {
			j++
		}
		if !fn(rows[i:j]) {
			return false
		}
		i = j
	}
	return true
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
