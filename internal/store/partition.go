package store

// Morsel partitioning: the scan-side half of the engine's morsel-driven
// parallelism (DESIGN.md §10). A View is immutable, so a morsel needs no
// copy of the rows it covers: it is a contiguous key range of the index
// chosen for a pattern — a subslice of the base array plus the delta
// entries whose keys fall inside it — scanned through the same merge
// kernel as every other read. Morsels of one pattern are disjoint, cover
// its scan, and emit its rows in global key order when processed (or
// merged back) in morsel order.

// RowRange is a half-open [Lo, Hi) row interval inside a slice being
// split — one piece of a partitioned sort or of a morsel split.
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

// Morsel is one contiguous key range of a pattern's scan in a View. It
// holds no lock and needs no release; like the View it came from it
// sees one store version, and any number of goroutines may scan
// different morsels (or the same one) concurrently.
type Morsel struct {
	st       *Store
	r        *run
	base     []IDQuad // the base rows of the key range
	from, to dpos     // the delta entries of the key range
	p        Pattern  // what the key range leaves to filter per row
}

// Morsels splits the rows matching p into at most n morsels (n < 1 counts
// as 1): contiguous key ranges of the index chosen for p, in key order,
// so scanning them one after another visits exactly the rows ScanBatch
// visits, in the same order. Split keys are base rows at equal positions
// of the pattern's base range, so morsels hold near-equal numbers of
// base rows; each delta entry goes to the morsel whose key range holds
// it — a tombstone with its base row, an insert between its neighbours.
// A range with fewer base rows than n yields fewer morsels, and an
// empty one a single morsel (empty, or holding only delta inserts), so
// callers need no special case. The split counts as one scan of the
// index.
func (v *View) Morsels(p Pattern, n int) []Morsel {
	r := v.chooseRun(p)
	base, from, to, rest := r.span(p)
	parts := splitRange(0, len(base), n)
	if len(parts) < 2 {
		return []Morsel{{st: v.st, r: r, base: base, from: from, to: to, p: rest}}
	}
	out := make([]Morsel, len(parts))
	at := from
	for i, part := range parts {
		end := to
		if i+1 < len(parts) && at != to {
			split := base[parts[i+1].Lo]
			end = r.delta.seek(func(q IDQuad) bool { return !r.ix.less(q, split) })
		}
		out[i] = Morsel{st: v.st, r: r, base: base[part.Lo:part.Hi], from: at, to: end, p: rest}
		at = end
	}
	return out
}

// ScanBatch calls fn with the morsel's rows in runs of at most max
// (max <= 0 means DefaultBatchRows), in key order, with the contract of
// View.ScanBatch: a run is valid only during the callback — a subslice
// of the version's base array or a scratch buffer — and must not be
// mutated; fn returning false stops the scan. An installed
// FaultInjector observes every row of a run before fn sees the run.
func (m *Morsel) ScanBatch(max int, fn func([]IDQuad) bool) {
	if max <= 0 {
		max = DefaultBatchRows
	}
	m.r.merge(m.base, m.from, m.to, m.p, max, m.st.faultWrap(fn))
}
