package store

import "sort"

// deltaChunkRows bounds one chunk of a delta run. A writer copies only
// the chunks a change falls into plus the chunk directory, so an update
// costs a few KiB per index however large the delta has grown: at the
// compaction threshold a 64-entry chunk and the 128-chunk directory are
// about 3 KiB and 4 KiB.
const deltaChunkRows = 64

// dentry is one delta entry: a quad inserted since the last compaction,
// or the tombstone of a row still present in the base array.
type dentry struct {
	q    IDQuad
	tomb bool
}

// chunk is a sorted, non-empty slice of a delta run. tombs counts its
// tombstones so a range count need not visit interior chunks.
type chunk struct {
	e     []dentry
	tombs int
}

// deltaRun is one index's delta in one store version: entries in the
// index's key order, strictly ascending across the concatenated chunks.
// An insert entry's quad is never in the base array and a tombstone's
// always is. A published run is immutable; with builds its successor.
type deltaRun []chunk

// dpos addresses an entry by chunk and offset; {len(d), 0} is the end.
type dpos struct{ c, i int }

// seek returns the position of the first entry whose quad satisfies ge,
// which must be false for a prefix of the run and true for the rest.
func (d deltaRun) seek(ge func(IDQuad) bool) dpos {
	c := sort.Search(len(d), func(i int) bool {
		e := d[i].e
		return ge(e[len(e)-1].q)
	})
	if c == len(d) {
		return dpos{c, 0}
	}
	e := d[c].e
	return dpos{c, sort.Search(len(e), func(i int) bool { return ge(e[i].q) })}
}

func (d deltaRun) next(p dpos) dpos {
	if p.i++; p.i == len(d[p.c].e) {
		return dpos{p.c + 1, 0}
	}
	return p
}

// net returns inserts minus tombstones among the entries in [from, to).
func (d deltaRun) net(from, to dpos) int {
	n := 0
	for c := from.c; c < len(d) && c <= to.c; c++ {
		e := d[c].e
		lo, hi := 0, len(e)
		if c == from.c {
			lo = from.i
		}
		if c == to.c {
			hi = to.i
		}
		if lo == 0 && hi == len(e) {
			n += len(e) - 2*d[c].tombs
			continue
		}
		for _, x := range e[lo:hi] {
			if x.tomb {
				n--
			} else {
				n++
			}
		}
	}
	return n
}

// with returns the run after changes, which are sorted by less and all
// effective: tomb deletes a live quad, otherwise the quad is not live
// and is inserted. A delete cancels its quad's insert entry and an
// insert cancels its quad's tombstone; any other change becomes an
// entry. Chunks no change falls into are shared with d.
func (d deltaRun) with(changes []dentry, less func(a, b IDQuad) bool) deltaRun {
	out := make(deltaRun, 0, len(d)+1)
	for len(changes) > 0 && len(d) > 0 {
		// The first change falls into the first chunk that does not end
		// before it, or into the last chunk.
		ci := sort.Search(len(d)-1, func(i int) bool {
			e := d[i].e
			return !less(e[len(e)-1].q, changes[0].q)
		})
		out = append(out, d[:ci]...)
		c := d[ci]
		d = d[ci+1:]
		n := len(changes)
		if len(d) > 0 {
			last := c.e[len(c.e)-1].q
			n = sort.Search(n, func(i int) bool { return less(last, changes[i].q) })
		}
		out = appendChunks(out, mergeEntries(c.e, changes[:n], less))
		changes = changes[n:]
	}
	out = append(out, d...)
	return appendChunks(out, append([]dentry(nil), changes...))
}

// mergeEntries merges a chunk with the changes that fall into it. Equal
// quads are an entry meeting the change that undoes it; both vanish.
func mergeEntries(old, changes []dentry, less func(a, b IDQuad) bool) []dentry {
	out := make([]dentry, 0, len(old)+len(changes))
	for _, ch := range changes {
		k := sort.Search(len(old), func(i int) bool { return !less(old[i].q, ch.q) })
		out = append(out, old[:k]...)
		if old = old[k:]; len(old) > 0 && old[0].q == ch.q {
			old = old[1:]
		} else {
			out = append(out, ch)
		}
	}
	return append(out, old...)
}

// appendChunks appends e to out as equal pieces of at most
// deltaChunkRows entries; an empty e adds nothing.
func appendChunks(out deltaRun, e []dentry) deltaRun {
	if len(e) == 0 {
		return out
	}
	pieces := (len(e) + deltaChunkRows - 1) / deltaChunkRows
	size := (len(e) + pieces - 1) / pieces
	for len(e) > 0 {
		n := min(size, len(e))
		c := chunk{e: e[:n:n]}
		for _, x := range c.e {
			if x.tomb {
				c.tombs++
			}
		}
		out = append(out, c)
		e = e[n:]
	}
	return out
}
