package store

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Col identifies a quad-table column.
type Col uint8

// The five columns of the quads table.
const (
	ColS Col = iota // subject
	ColP            // predicate
	ColC            // canonical object
	ColG            // named graph
	ColM            // semantic model
	numCols
)

func (c Col) String() string {
	return string("SPCGM"[c])
}

// IDQuad is a row of the ID-based quads table.
type IDQuad struct {
	S, P, C, G, M ID
}

// Get returns the value in column c.
func (q IDQuad) Get(c Col) ID {
	switch c {
	case ColS:
		return q.S
	case ColP:
		return q.P
	case ColC:
		return q.C
	case ColG:
		return q.G
	default:
		return q.M
	}
}

// Pattern is a scan pattern: a value per column, where Any matches
// everything. Note G==NoID matches only default-graph quads; to match any
// graph use Any.
type Pattern struct {
	S, P, C, G, M ID
}

// AnyPattern returns a pattern matching every quad.
func AnyPattern() Pattern { return Pattern{S: Any, P: Any, C: Any, G: Any, M: Any} }

// Get returns the pattern value for column c.
func (p Pattern) Get(c Col) ID {
	switch c {
	case ColS:
		return p.S
	case ColP:
		return p.P
	case ColC:
		return p.C
	case ColG:
		return p.G
	default:
		return p.M
	}
}

// Matches reports whether the quad satisfies the pattern.
func (p Pattern) Matches(q IDQuad) bool {
	return (p.S == Any || p.S == q.S) &&
		(p.P == Any || p.P == q.P) &&
		(p.C == Any || p.C == q.C) &&
		(p.G == Any || p.G == q.G) &&
		(p.M == Any || p.M == q.M)
}

// bound returns the number of bound (non-wildcard) columns.
func (p Pattern) bound() int {
	n := 0
	for c := ColS; c < numCols; c++ {
		if p.Get(c) != Any {
			n++
		}
	}
	return n
}

// BoundCols returns the set of bound (non-wildcard) columns.
func (p Pattern) BoundCols() []Col {
	var cols []Col
	for c := ColS; c < numCols; c++ {
		if p.Get(c) != Any {
			cols = append(cols, c)
		}
	}
	return cols
}

// Permutation is an ordered list of columns forming an index key, e.g.
// "PCSGM". A valid permutation uses each of S, P, C, G, M exactly once.
type Permutation [numCols]Col

// ParsePermutation parses a key spec such as "PCSGM".
func ParsePermutation(s string) (Permutation, error) {
	var p Permutation
	if len(s) != int(numCols) {
		return p, fmt.Errorf("store: index key %q must use each of S,P,C,G,M exactly once", s)
	}
	var seen [numCols]bool
	for i := 0; i < len(s); i++ {
		idx := strings.IndexByte("SPCGM", s[i])
		if idx < 0 || seen[idx] {
			return p, fmt.Errorf("store: index key %q must use each of S,P,C,G,M exactly once", s)
		}
		seen[idx] = true
		p[i] = Col(idx)
	}
	return p, nil
}

// String renders the permutation as its key spec.
func (p Permutation) String() string {
	b := make([]byte, numCols)
	for i, c := range p {
		b[i] = "SPCGM"[c]
	}
	return string(b)
}

// Index is the identity of a semantic-network index: its key permutation
// and its usage counters. The rows live in store versions (see run), so
// an Index survives every update and compaction of the store it belongs
// to.
type Index struct {
	perm Permutation

	// Usage statistics, exposed for plan verification (Table 5).
	// Atomic: any number of readers scan concurrently.
	rangeScans atomic.Int64
	fullScans  atomic.Int64
}

// Perm returns the index key permutation.
func (ix *Index) Perm() Permutation { return ix.perm }

func (ix *Index) less(a, b IDQuad) bool {
	for _, c := range ix.perm {
		av, bv := a.Get(c), b.Get(c)
		if av != bv {
			return av < bv
		}
	}
	return false
}

// prefixLen returns how many leading key columns of the pattern are bound.
func (ix *Index) prefixLen(p Pattern) int {
	n := 0
	for _, c := range ix.perm {
		if p.Get(c) == Any {
			break
		}
		n++
	}
	return n
}

func (ix *Index) lessPrefix(q IDQuad, p Pattern, n int) bool {
	for i := 0; i < n; i++ {
		c := ix.perm[i]
		qv, pv := q.Get(c), p.Get(c)
		if qv != pv {
			return qv < pv
		}
	}
	return false
}

func (ix *Index) greaterPrefix(q IDQuad, p Pattern, n int) bool {
	for i := 0; i < n; i++ {
		c := ix.perm[i]
		qv, pv := q.Get(c), p.Get(c)
		if qv != pv {
			return qv > pv
		}
	}
	return false
}

// run is one index's rows in one store version: the base array sorted
// by the index key, shared between versions and replaced only by
// compaction, bulk load, index creation and binary restore, plus the
// delta accumulated since. The live rows are the base rows without a
// tombstone plus the delta's inserts. dir is the directory over the
// base array's first key column, built with the array (newRun).
type run struct {
	ix    *Index
	base  []IDQuad
	dir   colDir
	delta deltaRun
}

// newRun returns ix's run over the sorted base rows, with an empty
// delta and the directory of the rows' first key column.
func newRun(ix *Index, base []IDQuad) run {
	return run{ix: ix, base: base, dir: newColDir(base, ix.perm[0])}
}

// baseRange returns the half-open range of base rows whose first n key
// columns equal the pattern's values. The directory locates the first
// column's range; the columns after it, if any, are searched inside
// that range. A run without a directory searches all its rows.
func (r *run) baseRange(p Pattern, n int) (lo, hi int) {
	if n == 0 {
		return 0, len(r.base)
	}
	rows, cols := r.base, r.ix.perm[:n]
	if r.dir.starts != nil {
		if lo, hi = r.dir.locate(p.Get(cols[0])); n == 1 {
			return lo, hi
		}
		rows, cols = r.base[lo:hi], cols[1:]
	}
	from := sort.Search(len(rows), func(i int) bool { return compareKey(rows[i], p, cols) >= 0 })
	to := from + sort.Search(len(rows)-from, func(i int) bool { return compareKey(rows[from+i], p, cols) > 0 })
	return lo + from, lo + to
}

// deltaRange is baseRange over the delta entries.
func (r *run) deltaRange(p Pattern, n int) (from, to dpos) {
	if len(r.delta) == 0 {
		return
	}
	from = r.delta.seek(func(q IDQuad) bool { return !r.ix.lessPrefix(q, p, n) })
	to = r.delta.seek(func(q IDQuad) bool { return r.ix.greaterPrefix(q, p, n) })
	return from, to
}

// estimate returns the number of live rows in the range addressed by
// the bound key prefix of p — an upper bound on the matching rows that
// does not depend on how the rows are split between base and delta.
func (r *run) estimate(p Pattern) int {
	n := r.ix.prefixLen(p)
	lo, hi := r.baseRange(p, n)
	from, to := r.deltaRange(p, n)
	return hi - lo + r.delta.net(from, to)
}

// lookup reports whether the exact quad is live, and whether the base
// array holds it (live or tombstoned). It does not count as a scan in
// the usage statistics: it is the store's uniqueness check, not a query
// access path.
func (r *run) lookup(q IDQuad) (live, inBase bool) {
	if len(r.delta) > 0 {
		at := r.delta.seek(func(x IDQuad) bool { return !r.ix.less(x, q) })
		if at.c < len(r.delta) {
			if e := r.delta[at.c].e[at.i]; e.q == q {
				return !e.tomb, e.tomb
			}
		}
	}
	i := sort.Search(len(r.base), func(i int) bool { return !r.ix.less(r.base[i], q) })
	inBase = i < len(r.base) && r.base[i] == q
	return inBase, inBase
}

// compacted returns the run with the delta folded into a new base
// array; the old array is left to the versions that still read it.
func (r *run) compacted() run {
	if len(r.delta) == 0 {
		return *r
	}
	end := dpos{c: len(r.delta)}
	merged := make([]IDQuad, 0, len(r.base)+r.delta.net(dpos{}, end))
	r.merge(r.base, dpos{}, end, AnyPattern(), len(r.base)+1, func(rows []IDQuad) bool {
		merged = append(merged, rows...)
		return true
	})
	return newRun(r.ix, merged)
}

// loaded returns the run with rows, sorted by h, merged into a new base
// array. Equal rows sort next to each other, so repeats within rows and
// rows the base already holds drop out of the sort and the merge. The
// delta must be empty; rows is only read.
func (r *run) loaded(rows []IDQuad, h *radixHist) run {
	if len(rows) == 0 {
		return *r
	}
	sorted := slices.Compact(h.sort(rows, r.ix.perm))
	if len(r.base) == 0 {
		return newRun(r.ix, sorted)
	}
	return newRun(r.ix, mergeRuns(r.base, sorted, r.ix.less))
}

// mergeRuns returns the union of the sorted, duplicate-free runs a and b
// in a new array: a row of b equal to one of a is dropped.
func mergeRuns(a, b []IDQuad, less func(x, y IDQuad) bool) []IDQuad {
	out := make([]IDQuad, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case less(b[j], a[i]):
			out = append(out, b[j])
			j++
		case b[j] == a[i]:
			j++
		default:
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// keyCompressedCells estimates the number of stored key cells under
// prefix compression: consecutive rows share the cells of their common
// key prefix, modeling Oracle's index key compression. Used for Table 9
// storage accounting (it is why, e.g., GPSCM on NG data compresses worse
// than PCSGM: G is nearly unique per row).
func (r *run) keyCompressedCells() int64 {
	var cells int64
	var prev IDQuad
	for i, q := range r.base {
		if i == 0 {
			cells += int64(numCols)
			prev = q
			continue
		}
		shared := 0
		for _, c := range r.ix.perm {
			if q.Get(c) == prev.Get(c) {
				shared++
			} else {
				break
			}
		}
		cells += int64(int(numCols) - shared)
		prev = q
	}
	return cells
}
