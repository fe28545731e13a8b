package store

import (
	"sort"
	"sync"
)

// parallelSortMinRows is the slice size below which the parallel sort
// falls back to a plain sort.Slice: goroutine and merge overhead beats
// the win on small batches.
const parallelSortMinRows = 1 << 14

// sortQuads sorts rows by less using up to workers goroutines: the
// slice is cut into contiguous chunks, each chunk sorted concurrently,
// then chunks are merged pairwise (also concurrently) until one sorted
// run remains. Ties never reorder observably: an index never holds two
// equal rows (the store deduplicates on load/insert), so less induces a
// total order and the result is byte-identical to the serial sort.
func sortQuads(rows []IDQuad, less func(a, b IDQuad) bool, workers int) {
	if workers <= 1 || len(rows) < parallelSortMinRows {
		sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		return
	}
	runs := splitRange(0, len(rows), workers)
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s := rows[lo:hi]
			sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
		}(r.Lo, r.Hi)
	}
	wg.Wait()

	// Pairwise merge, ping-ponging between rows and a scratch buffer.
	src, dst := rows, make([]IDQuad, len(rows))
	for len(runs) > 1 {
		next := make([]RowRange, 0, (len(runs)+1)/2)
		var mg sync.WaitGroup
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				r := runs[i]
				copy(dst[r.Lo:r.Hi], src[r.Lo:r.Hi])
				next = append(next, r)
				continue
			}
			a, b := runs[i], runs[i+1]
			mg.Add(1)
			go func(a, b RowRange) {
				defer mg.Done()
				mergeRuns(dst[a.Lo:b.Hi], src[a.Lo:a.Hi], src[b.Lo:b.Hi], less)
			}(a, b)
			next = append(next, RowRange{Lo: a.Lo, Hi: b.Hi})
		}
		mg.Wait()
		src, dst = dst, src
		runs = next
	}
	if len(rows) > 0 && &src[0] != &rows[0] {
		copy(rows, src)
	}
}

// RowRange is a half-open [Lo, Hi) row interval of a slice being
// sorted in pieces.
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

// mergeRuns merges the sorted runs a and b into out (len(out) must be
// len(a)+len(b)), taking from a on ties.
func mergeRuns(out, a, b []IDQuad, less func(x, y IDQuad) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
