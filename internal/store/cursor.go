package store

import "repro/internal/rdf"

// Cursor is a pull-based iterator over the quads matching a pattern.
// It is the streaming counterpart of Scan for callers that cannot drive
// a callback (HTTP handlers writing row-by-row, mergers interleaving
// several scans, ...).
//
// A Cursor is a consistent snapshot: the matching rows are materialized
// from one store version at creation time, so later inserts, deletes
// and compactions do not affect it. The price is O(matches) memory,
// which is the same bound the callback API's consumers pay in practice
// when they buffer rows.
//
// Every Cursor MUST be closed (or fully drained; Next reports
// exhaustion and then Close becomes a no-op bookkeeping call that is
// still required). Open cursors are counted on the store — see
// OpenCursors — so leaks are observable in tests and in the /stats
// endpoint. The pgrdfvet iterclose analyzer enforces the Close
// discipline at compile time.
type Cursor struct {
	st     *Store
	rows   []IDQuad
	pos    int
	closed bool
}

// Cursor returns a snapshot iterator over the quads matching p, in the
// key order of the index chosen for the pattern. The caller must Close
// it.
func (v *View) Cursor(p Pattern) *Cursor {
	var rows []IDQuad
	v.ScanBatch(p, 0, func(run []IDQuad) bool {
		rows = append(rows, run...)
		return true
	})
	v.st.openCursors.Add(1)
	return &Cursor{st: v.st, rows: rows}
}

// Next returns the next matching quad. ok is false once the cursor is
// exhausted or closed.
func (c *Cursor) Next() (q IDQuad, ok bool) {
	if c.closed || c.pos >= len(c.rows) {
		return IDQuad{}, false
	}
	q = c.rows[c.pos]
	c.pos++
	return q, true
}

// Len returns the total number of rows in the snapshot, drained or not.
func (c *Cursor) Len() int { return len(c.rows) }

// NextQuad is Next with the dictionary lookup applied: it materializes
// the row's IDs back into RDF terms. The dictionary is append-only and
// self-locking, so this is safe while the store mutates.
func (c *Cursor) NextQuad() (rdf.Quad, bool) {
	q, ok := c.Next()
	if !ok {
		return rdf.Quad{}, false
	}
	return c.st.quadTerms(q), true
}

// Close releases the cursor. It is idempotent and never fails; the
// error return satisfies io.Closer so cursors compose with generic
// resource-cleanup helpers.
func (c *Cursor) Close() error {
	if !c.closed {
		c.closed = true
		c.rows = nil
		c.st.openCursors.Add(-1)
	}
	return nil
}

// OpenCursors returns the number of cursors created and not yet closed,
// a leak gauge for tests and monitoring.
func (s *Store) OpenCursors() int64 {
	return s.openCursors.Load()
}
