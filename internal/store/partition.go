package store

// Morsel partitioning: the scan-side half of the engine's morsel-driven
// parallelism (DESIGN.md §10). A cursor snapshot is a sorted quad
// slice, so a "morsel" is simply a contiguous row range; splitting the
// range yields disjoint morsels that together cover the scan and
// preserve global row order when processed (or merged back) in range
// order.

// RowRange is a half-open [Lo, Hi) row interval inside a cursor
// snapshot or a slice being sorted — one morsel of a partitioned scan.
type RowRange struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.Hi - r.Lo }

// splitRange cuts [lo, hi) into at most n near-equal contiguous ranges.
// It returns nil for an empty interval and never returns empty ranges.
func splitRange(lo, hi, n int) []RowRange {
	size := hi - lo
	if size <= 0 || n <= 0 {
		return nil
	}
	if n > size {
		n = size
	}
	out := make([]RowRange, 0, n)
	chunk, rem := size/n, size%n
	at := lo
	for i := 0; i < n; i++ {
		next := at + chunk
		if i < rem {
			next++
		}
		out = append(out, RowRange{Lo: at, Hi: next})
		at = next
	}
	return out
}

// Partitions splits the cursor's remaining rows into at most n
// contiguous sub-cursors (morsels) covering them in order. Ownership of
// the snapshot transfers to the returned cursors: the receiver is
// closed, and every returned cursor must be closed independently (each
// counts in the store's open-cursor gauge, so a leaked morsel is as
// observable as a leaked cursor). A drained or empty cursor yields a
// single empty partition so callers need no special case.
func (c *Cursor) Partitions(n int) []*Cursor {
	st := c.st
	var rows []IDQuad
	if !c.closed {
		rows = c.rows[c.pos:]
	}
	c.Close()
	ranges := splitRange(0, len(rows), n)
	if len(ranges) == 0 {
		st.openCursors.Add(1)
		return []*Cursor{{st: st}}
	}
	out := make([]*Cursor, len(ranges))
	for i, r := range ranges {
		st.openCursors.Add(1)
		out[i] = &Cursor{st: st, rows: rows[r.Lo:r.Hi]}
	}
	return out
}
