package graph

import (
	"context"
	"reflect"
	"sort"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Why Patch could not carry a projection forward (PatchInfo.Rebuild).
const (
	// RebuildOverflow: the projection is further behind the store than
	// the change log reaches.
	RebuildOverflow = "overflow"
	// RebuildBarrier: a bulk Load lies between the projection and the
	// store's current version.
	RebuildBarrier = "barrier"
	// RebuildUnclassified: the log holds a change the patcher cannot
	// translate into edge occurrences — a weight literal or an edge of a
	// weighted projection (a float sum must be re-derived in sorted
	// order, not adjusted), or a dataset whose member models changed.
	RebuildUnclassified = "unclassified"
)

// PatchInfo says what one Patch call did.
type PatchInfo struct {
	// Changes is the number of change-log entries consumed.
	Changes int
	// Copied reports that a change touched the projected topology, so a
	// new CSR was emitted. False means the old CSR is still exact and only
	// the version label moved.
	Copied bool
	// Rebuild, when non-empty, is one of the Rebuild* reasons: no
	// projection is returned and the caller must run NewProjection.
	Rebuild string
}

// Patch carries the projection to the store's current version by
// replaying the store's change log onto it: the result is bit-identical
// to what NewProjection would build from scratch now, at the cost of one
// O(V+E) copy instead of a scan of every quad — and of nothing when the
// logged changes never touch the projected topology. The receiver is not
// modified. When the log cannot be replayed, next is nil and
// info.Rebuild says why.
func (pr *Projection) Patch(ctx context.Context, b Budget) (next *Projection, info PatchInfo, err error) {
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, b)
	if err != nil {
		return nil, info, err
	}
	defer cancel()

	pt := &patcher{
		decoder: newDecoder(pr.st.Dict(), pr.opts),
		reader:  reader{models: pr.models, guard: g},
		old:     pr,
		delta:   make(map[pairKey]int),
		marked:  make(map[store.ID]bool),
	}
	// The log, the probes that interpret it and the version label all
	// come from one pinned version of the store.
	pt.view = pr.st.View()
	info = pt.classify()
	if err := g.Err(); err != nil {
		return nil, info, err
	}
	if info.Rebuild != "" {
		return nil, info, nil
	}
	cp := *pr
	cp.Version = pt.view.Version
	cs, occ, ok := pt.apply()
	switch {
	case !ok:
		info.Rebuild = RebuildUnclassified
		return nil, info, nil
	case cs != nil:
		cp.CSR, cp.occ, info.Copied = cs, occ, true
	}
	return &cp, info, nil
}

// pairKey is a directed vertex pair in store-ID space.
type pairKey struct{ src, dst store.ID }

// patcher is the state of one Patch call.
type patcher struct {
	*decoder
	reader
	old *Projection

	changes []store.Change
	// delta is the net change in decoded occurrences per vertex pair.
	delta map[pairKey]int
	// edgeTouched: some edge occurrence came or went, even if delta nets
	// to zero — enough to invalidate a weighted pair's sum.
	edgeTouched bool
	// markers are the vertices whose marker quads changed.
	markers []store.ID
	// marked is the after-state marker status of every vertex that might
	// leave the projection (a marker or an incident occurrence went).
	marked map[store.ID]bool
}

// undo returns the before-state of rows — a probe's result at the view's
// version — given the logged changes (indexes into pt.changes, oldest
// first) that touched exactly the quads the probe matches.
func (pt *patcher) undo(rows []store.IDQuad, idxs []int) []store.IDQuad {
	out := append([]store.IDQuad(nil), rows...)
	for k := len(idxs) - 1; k >= 0; k-- {
		ch := pt.changes[idxs[k]]
		if ch.Deleted {
			out = append(out, ch.Quad)
			continue
		}
		for j, r := range out {
			if r == ch.Quad {
				out[j] = out[len(out)-1]
				out = out[:len(out)-1]
				break
			}
		}
	}
	return out
}

// leastAt is the decoders' one-value rule over a probe's rows: the least
// value in column col, or NoID when there is no row.
func (pt *patcher) leastAt(rows []store.IDQuad, col store.Col) store.ID {
	out := store.NoID
	for _, r := range rows {
		out = pt.least(out, r.Get(col))
	}
	return out
}

// probe returns the rows of template c with id as role k.
func (pt *patcher) probe(c *tmpl, k int, id store.ID) []store.IDQuad {
	var out []store.IDQuad
	if !c.dead {
		pt.drain(c.pattern(k, id), func(q store.IDQuad) {
			if c.matches(q) {
				out = append(out, q)
			}
		})
	}
	return out
}

// sign is a logged change's contribution to an occurrence count.
func sign(ch store.Change) int {
	if ch.Deleted {
		return -1
	}
	return 1
}

func (pt *patcher) add(src, dst store.ID, n int) {
	pt.edgeTouched = true
	k := pairKey{src, dst}
	if pt.delta[k] += n; pt.delta[k] == 0 {
		delete(pt.delta, k)
	}
}

// classify reads the change log since the old projection's version and
// translates it, by the decoder's one rule, into occurrence deltas and
// marker changes.
// Everything it learns from the store it learns from the pinned view.
func (pt *patcher) classify() (info PatchInfo) {
	since := pt.old.Version
	changes, ok := pt.view.ChangesSince(since)
	if !ok {
		info.Rebuild = RebuildBarrier
		if pt.view.Version > since && pt.view.Version-since > store.ChangeLogSize {
			info.Rebuild = RebuildOverflow
		}
		return info
	}
	info.Changes = len(changes)
	pt.changes = changes
	if model := pt.old.opts.Model; model != "" {
		now, err := pt.view.ResolveDataset(model)
		if err != nil || !reflect.DeepEqual(dataset(now), pt.old.models) {
			info.Rebuild = RebuildUnclassified
			return info
		}
	}

	weighted := pt.old.opts.WeightKey != ""
	// Log indexes per touched edge resource: per functional template,
	// then the carrier's.
	touched := map[store.ID][][]int{}
	note := func(e store.ID, k, i int) {
		if touched[e] == nil {
			touched[e] = make([][]int, len(pt.functional)+1)
		}
		touched[e][k] = append(touched[e][k], i)
	}
	for i, ch := range changes {
		q := ch.Quad
		if !pt.models.has(q.M) {
			continue
		}
		if weighted && q.P == pt.weightID {
			info.Rebuild = RebuildUnclassified
			return info
		}
		if pt.marker.matches(q) {
			pt.markers = append(pt.markers, pt.marker.at(&q, rNode))
		}
		if plain := &pt.rows[0]; plain.matches(q) {
			pt.addOccurrence(vals{}, plain, &q, sign(ch))
		}
		for k := range pt.functional {
			if f := &pt.functional[k]; f.matches(q) {
				note(f.at(&q, rEdge), k, i)
			}
		}
		if c := pt.carrier; c != nil && c.matches(q) {
			note(c.at(&q, rEdge), len(pt.functional), i)
		}
	}
	for e, l := range touched {
		pt.rederive(e, l)
	}
	if weighted && pt.edgeTouched {
		info.Rebuild = RebuildUnclassified
		return info
	}

	// A vertex may leave when a marker or an incident occurrence goes;
	// whether it does depends on its marker now, which only the store
	// knows.
	for _, v := range pt.markers {
		pt.probeMarked(v)
	}
	for k, n := range pt.delta {
		if n < 0 {
			pt.probeMarked(k.src)
			pt.probeMarked(k.dst)
		}
	}
	return info
}

// rederive translates the logged changes of edge resource e into
// occurrence deltas. Its functional values now are point probes; before,
// the same probes with e's log entries undone. While they stay put, each
// logged carrier row counts ±1 (always so in NG). When they move, every
// carrier row of e, or the one edge, goes out and comes back under them.
func (pt *patcher) rederive(e store.ID, logs [][]int) {
	var before, after vals
	for k := range pt.functional {
		f := &pt.functional[k]
		now := pt.probe(f, rEdge, e)
		col := store.Col(f.col[f.val])
		after[f.val] = pt.leastAt(now, col)
		before[f.val] = pt.leastAt(pt.undo(now, logs[k]), col)
	}
	c, carried := pt.carrier, logs[len(pt.functional)]
	if before == after {
		for _, i := range carried {
			ch := pt.changes[i]
			pt.addOccurrence(after, c, &ch.Quad, sign(ch))
		}
		return
	}
	rows := []store.IDQuad{{}} // without a carrier: the one edge
	if c != nil {
		rows = pt.probe(c, rEdge, e)
	}
	for _, r := range pt.undo(rows, carried) {
		pt.addOccurrence(before, c, &r, -1)
	}
	for _, r := range rows {
		pt.addOccurrence(after, c, &r, +1)
	}
}

// addOccurrence counts n for the occurrence v and row q of c decode to,
// if they decode to one.
func (pt *patcher) addOccurrence(v vals, c *tmpl, q *store.IDQuad, n int) {
	if v, ok := pt.occurrence(v, c, q); ok {
		pt.add(v[0], v[1], n)
	}
}

func (pt *patcher) probeMarked(v store.ID) {
	if _, done := pt.marked[v]; !done {
		pt.marked[v] = len(pt.probe(&pt.marker, rNode, v)) > 0
	}
}

// edgeUpdate sets the occurrence count of an existing forward-adjacency
// slot; zero drops the edge.
type edgeUpdate struct {
	pos, occ uint32
}

// edgeInsert is an edge absent from the old CSR, in new vertex indexes.
type edgeInsert struct {
	src, dst, occ uint32
}

// apply turns what classify learned into a new CSR. It returns a nil CSR
// when the old one is still exact, and ok=false when the deltas do not
// fit the old projection (a count would go negative, an edge would leave
// a vertex that was never there) — which only a change the decoders
// disagree about can cause, so the caller rebuilds instead of guessing.
//
// The new CSR is bit-identical to a from-scratch projection because both
// are the same function of the same occurrence multiset: vertices are
// numbered by rdf.Compare rank (the old numbering, remapped
// monotonically around the vertices that came and went), each row is
// sorted by destination (the old row merged with the sorted inserts),
// and the reverse adjacency is the same counting sort over the result.
func (pt *patcher) apply() (cs *CSR, occ []uint32, ok bool) {
	old := pt.old.CSR
	n := uint32(len(old.terms))

	// Resolve every touched store ID to its old vertex index, or line it
	// up as a new vertex n+k (k = its rank among the new ones).
	index := map[store.ID]uint32{}
	var added []store.ID
	resolve := func(id store.ID, joins bool) bool {
		if _, done := index[id]; done {
			return true
		}
		i, found := old.Index(pt.dict.Term(id))
		switch {
		case found:
			index[id] = i
		case joins:
			index[id] = n // placeholder until the new vertices are ranked
			added = append(added, id)
		default:
			return false
		}
		return true
	}
	for _, v := range pt.markers {
		resolve(v, pt.marked[v]) // a vertex neither here before nor marked now is no vertex
	}
	for k, d := range pt.delta {
		if !resolve(k.src, d > 0) || !resolve(k.dst, d > 0) {
			return nil, nil, false
		}
	}
	sort.Slice(added, func(i, j int) bool {
		return rdf.Compare(pt.dict.Term(added[i]), pt.dict.Term(added[j])) < 0
	})
	addedTerms := make([]rdf.Term, len(added))
	for k, id := range added {
		addedTerms[k] = pt.dict.Term(id)
		index[id] = n + uint32(k)
	}

	// Split the deltas into count updates of existing edges and inserts,
	// tracking how each touched vertex's degrees move.
	var upd []edgeUpdate
	var ins []edgeInsert // src/dst in old-or-new (n+k) indexes until remapped below
	outDelta, inDelta := map[uint32]int{}, map[uint32]int{}
	var leaving []store.ID // vertices that lost an edge or a marker
	for k, d := range pt.delta {
		s, t := index[k.src], index[k.dst]
		pos, found := uint32(0), false
		if s < n && t < n {
			row := old.dst[old.off[s]:old.off[s+1]]
			j := sort.Search(len(row), func(j int) bool { return row[j] >= t })
			if j < len(row) && row[j] == t {
				pos, found = old.off[s]+uint32(j), true
			}
		}
		if !found {
			if d < 0 {
				return nil, nil, false
			}
			ins = append(ins, edgeInsert{src: s, dst: t, occ: uint32(d)})
			outDelta[s]++
			inDelta[t]++
			continue
		}
		left := int(pt.old.occ[pos]) + d
		if left < 0 {
			return nil, nil, false
		}
		upd = append(upd, edgeUpdate{pos: pos, occ: uint32(left)})
		if left == 0 {
			outDelta[s]--
			inDelta[t]--
			leaving = append(leaving, k.src, k.dst)
		}
	}

	// A vertex leaves when nothing holds it any more: no marker, no edge.
	removed := map[uint32]bool{}
	var counted []uint32 // in-degrees, counted once when there is no reverse adjacency
	inDegree := func(v uint32) int {
		if old.roff != nil {
			return old.InDegree(v)
		}
		if counted == nil {
			counted = make([]uint32, n)
			for _, d := range old.dst {
				counted[d]++
			}
		}
		return int(counted[v])
	}
	for _, id := range append(leaving, pt.markers...) {
		v, known := index[id]
		if !known || v >= n || pt.marked[id] {
			continue
		}
		if old.OutDegree(v)+outDelta[v] == 0 && inDegree(v)+inDelta[v] == 0 {
			removed[v] = true
		}
	}

	if len(upd) == 0 && len(ins) == 0 && len(added) == 0 && len(removed) == 0 {
		return nil, nil, true
	}
	if old.w != nil && len(upd)+len(ins) > 0 {
		return nil, nil, false // classify lets no edge of a weighted projection through
	}

	terms, origin, remap := renumber(old.terms, addedTerms, removed)
	if remap != nil {
		for i := range ins {
			ins[i].src, ins[i].dst = remap[ins[i].src], remap[ins[i].dst]
		}
	}
	sort.Slice(upd, func(i, j int) bool { return upd[i].pos < upd[j].pos })
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].src != ins[j].src {
			return ins[i].src < ins[j].src
		}
		return ins[i].dst < ins[j].dst
	})
	cs, occ = mergeRows(old, pt.old.occ, terms, origin, remap, upd, ins)
	if pt.old.opts.Reverse {
		cs.buildReverse()
	}
	return cs, occ, true
}

// renumber merges the added vertices (sorted) into the old order and
// drops the removed ones. origin[u] is new vertex u's old index, or
// len(old)+k for added vertex k; remap is the inverse. Both are nil, and
// terms is old itself, when no vertex moved.
func renumber(old, added []rdf.Term, removed map[uint32]bool) (terms []rdf.Term, origin, remap []uint32) {
	if len(added) == 0 && len(removed) == 0 {
		return old, nil, nil
	}
	n := uint32(len(old))
	total := len(old) + len(added) - len(removed)
	terms = make([]rdf.Term, 0, total)
	origin = make([]uint32, 0, total)
	remap = make([]uint32, len(old)+len(added))
	emit := func(from uint32, t rdf.Term) {
		remap[from] = uint32(len(terms))
		terms = append(terms, t)
		origin = append(origin, from)
	}
	a := 0
	for i := uint32(0); i < n; i++ {
		for a < len(added) && rdf.Compare(added[a], old[i]) < 0 {
			emit(n+uint32(a), added[a])
			a++
		}
		if !removed[i] {
			emit(i, old[i])
		}
	}
	for ; a < len(added); a++ {
		emit(n+uint32(a), added[a])
	}
	return terms, origin, remap
}

// mergeRows is the copy pass: every surviving row of old, renumbered,
// with its dropped edges skipped (upd, sorted by position, occ 0), its
// counts updated, and its inserts (ins, sorted by new src then dst)
// merged in by destination.
func mergeRows(old *CSR, oldOcc []uint32, terms []rdf.Term, origin, remap []uint32, upd []edgeUpdate, ins []edgeInsert) (*CSR, []uint32) {
	n := uint32(len(old.terms))
	cs := &CSR{terms: terms, off: make([]uint32, len(terms)+1)}
	cs.dst = make([]uint32, 0, len(old.dst)+len(ins))
	occ := make([]uint32, 0, len(old.dst)+len(ins))
	if old.w != nil {
		cs.w = make([]float64, 0, len(old.dst))
	}
	ui, ii := 0, 0
	for u := range terms {
		from := uint32(u)
		if origin != nil {
			from = origin[u]
		}
		var p, hi uint32
		if from < n {
			p, hi = old.off[from], old.off[from+1]
		}
		for {
			for ui < len(upd) && upd[ui].pos < p {
				ui++
			}
			if p < hi && ui < len(upd) && upd[ui].pos == p && upd[ui].occ == 0 {
				p++
				continue
			}
			pending := ii < len(ins) && ins[ii].src == uint32(u)
			if p >= hi && !pending {
				break
			}
			d := uint32(0)
			if p < hi {
				if d = old.dst[p]; remap != nil {
					d = remap[d]
				}
			}
			if pending && (p >= hi || ins[ii].dst < d) {
				cs.dst = append(cs.dst, ins[ii].dst)
				occ = append(occ, ins[ii].occ)
				ii++
				continue
			}
			cs.dst = append(cs.dst, d)
			if ui < len(upd) && upd[ui].pos == p {
				occ = append(occ, upd[ui].occ)
			} else {
				occ = append(occ, oldOcc[p])
			}
			if old.w != nil {
				cs.w = append(cs.w, old.w[p])
			}
			p++
		}
		cs.off[u+1] = uint32(len(cs.dst))
	}
	return cs, occ
}
