package store

import "math/bits"

// radixHist is a bulk operation's byte histogram: for every column and
// byte position of the rows, how many rows hold each byte value there.
// The counts do not depend on the rows' order, so one histogram serves
// the sort of every index.
type radixHist struct {
	n     int
	width [numCols]int // per column, the low bytes that are non-zero in some row
	count [numCols][8][256]int
}

func newRadixHist(rows []IDQuad) *radixHist {
	h := &radixHist{n: len(rows)}
	var or IDQuad
	for _, q := range rows {
		or.S, or.P, or.C, or.G, or.M = or.S|q.S, or.P|q.P, or.C|q.C, or.G|q.G, or.M|q.M
	}
	for c := ColS; c < numCols; c++ {
		h.width[c] = (bits.Len64(uint64(or.Get(c))) + 7) / 8
	}
	for _, q := range rows {
		for c := ColS; c < numCols; c++ {
			v := q.Get(c)
			for b := 0; b < h.width[c]; b++ {
				h.count[c][b][byte(v>>(8*b))]++
			}
		}
	}
	return h
}

// sort returns the rows the histogram counted in perm's key order, in a
// new array: a stable scatter by each byte from the least significant
// key byte up. A byte where one value holds every row cannot reorder
// anything and is skipped, as are the zero high bytes width leaves out.
// rows is only read.
func (h *radixHist) sort(rows []IDQuad, perm Permutation) []IDQuad {
	src, bufs, k := rows, [2][]IDQuad{}, 0
	for i := len(perm) - 1; i >= 0; i-- {
		c := perm[i]
		for b := 0; b < h.width[c]; b++ {
			count := &h.count[c][b]
			if count[byte(rows[0].Get(c)>>(8*b))] == h.n {
				continue
			}
			var at [256]int
			for v, sum := 1, 0; v < 256; v++ {
				sum += count[v-1]
				at[v] = sum
			}
			if bufs[k] == nil {
				bufs[k] = make([]IDQuad, len(rows))
			}
			dst := bufs[k]
			for _, q := range src {
				d := byte(q.Get(c) >> (8 * b))
				dst[at[d]] = q
				at[d]++
			}
			src, k = dst, 1-k
		}
	}
	if bufs[0] == nil {
		return append([]IDQuad(nil), rows...)
	}
	return src
}
