package store

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// View is one immutable version of the store: everything a read needs —
// per index the sorted base rows and the sorted delta, the model and
// virtual-model tables and the version number. A View is never mutated
// after Store.View hands it out, so any number of reads through it,
// however long they take and whatever writers do meanwhile, see exactly
// the contents at Version; it takes no lock and needs no release
// (DESIGN.md §18).
type View struct {
	// Version is a counter advanced by one for every quad an Apply
	// (Insert, Delete) actually changed and by one for a Load that added
	// any. Consumers caching data derived from store contents — e.g. the
	// optimizer's cardinality estimates — compare versions to decide
	// whether their cache is still valid; ChangesSince tells a consumer
	// that wants to follow the store what happened in between.
	Version uint64

	st   *Store
	runs []run // one per index, all holding the same live rows

	inserts int // insert entries in each run's delta
	tombs   int // tombstones in each run's delta

	modelIDs   map[string]ModelID
	modelNames []string
	virtual    map[string][]ModelID

	// barrier is the newest version at or below Version that a mutation
	// the change log does not itemize (Load) produced.
	barrier uint64
}

// Len returns the number of live quads across all models: the base
// rows, plus the delta's inserts, minus its tombstones.
func (v *View) Len() int { return len(v.runs[0].base) + v.inserts - v.tombs }

// Models returns the names of all semantic models, in creation order.
func (v *View) Models() []string { return append([]string(nil), v.modelNames...) }

// LookupModel returns the ID for an existing model, or NoID.
func (v *View) LookupModel(name string) ModelID { return v.modelIDs[name] }

// ModelName returns the name of a model ID.
func (v *View) ModelName(id ModelID) string {
	if id == NoID || int(id) > len(v.modelNames) {
		return ""
	}
	return v.modelNames[id-1]
}

// ModelLen returns the number of live quads in one model.
func (v *View) ModelLen(model string) int {
	m, ok := v.modelIDs[model]
	if !ok {
		return 0
	}
	n := 0
	p := AnyPattern()
	p.M = m
	v.ScanBatch(p, 0, func(rows []IDQuad) bool { n += len(rows); return true })
	return n
}

// ResolveDataset maps a model or virtual-model name to the set of model
// IDs it denotes. An empty name denotes all models.
func (v *View) ResolveDataset(name string) ([]ModelID, error) {
	if name == "" {
		ids := make([]ModelID, len(v.modelNames))
		for i := range v.modelNames {
			ids[i] = ModelID(i + 1)
		}
		return ids, nil
	}
	if ids, ok := v.virtual[name]; ok {
		return append([]ModelID(nil), ids...), nil
	}
	if id, ok := v.modelIDs[name]; ok {
		return []ModelID{id}, nil
	}
	return nil, unknownModel(name)
}

// Indexes returns the key specs of all indexes.
func (v *View) Indexes() []string {
	specs := make([]string, len(v.runs))
	for i := range v.runs {
		specs[i] = v.runs[i].ix.perm.String()
	}
	return specs
}

// ChooseIndex returns the index that best serves the pattern: the one
// with the longest bound key prefix, ties broken by the smaller estimated
// range. This is the store's "optimizer hint" used by the SPARQL engine
// and reported in query plans.
func (v *View) ChooseIndex(p Pattern) *Index { return v.chooseRun(p).ix }

func (v *View) chooseRun(p Pattern) *run {
	best := &v.runs[0]
	bestPrefix := best.ix.prefixLen(p)
	for i := 1; i < len(v.runs); i++ {
		r := &v.runs[i]
		n := r.ix.prefixLen(p)
		if n > bestPrefix {
			best, bestPrefix = r, n
			continue
		}
		// Tie-break by estimated range size only for single-column
		// prefixes: two indexes with the same prefix LENGTH >= 2 cover
		// the same bound-column set in practice (the range size depends
		// only on the set, not the order), so the extra binary searches
		// would be pure overhead on the per-probe NLJ path.
		if n == bestPrefix && n == 1 && r.estimate(p) < best.estimate(p) {
			best = r
		}
	}
	return best
}

// ChooseIndexByBound returns the index that would serve a pattern whose
// bound columns are exactly cols: the index with the longest key prefix
// covered by the bound set, ties broken by creation order. Used for
// EXPLAIN-style plan reporting and planning when concrete IDs are not
// yet known.
func (v *View) ChooseIndexByBound(cols []Col) *Index {
	var bound [numCols]bool
	for _, c := range cols {
		bound[c] = true
	}
	best, bestPrefix := v.runs[0].ix, -1
	for i := range v.runs {
		ix := v.runs[i].ix
		n := 0
		for _, c := range ix.perm {
			if !bound[c] {
				break
			}
			n++
		}
		if n > bestPrefix {
			best, bestPrefix = ix, n
		}
	}
	return best
}

// Scan calls fn for each quad matching the pattern, in the key order of
// the index chosen for it. fn returning false stops iteration.
func (v *View) Scan(p Pattern, fn func(IDQuad) bool) {
	v.ScanBatch(p, 0, eachRow(fn))
}

// eachRow adapts a row callback to the batch kernel.
func eachRow(fn func(IDQuad) bool) func([]IDQuad) bool {
	return func(rows []IDQuad) bool {
		for _, q := range rows {
			if !fn(q) {
				return false
			}
		}
		return true
	}
}

// ScanIndex is like Scan but forces a particular index (for plan tests
// and ablations). The spec must name an existing index.
func (v *View) ScanIndex(spec string, p Pattern, fn func(IDQuad) bool) error {
	perm, err := ParsePermutation(spec)
	if err != nil {
		return err
	}
	for i := range v.runs {
		if v.runs[i].ix.perm == perm {
			v.runs[i].scan(p, 0, v.st.faultWrap(eachRow(fn)))
			return nil
		}
	}
	return fmt.Errorf("store: no index %s", spec)
}

// EstimateCount returns the number of live quads in the range the best
// index's bound key prefix addresses: an upper bound on the quads
// matching the pattern, in O(log n).
func (v *View) EstimateCount(p Pattern) int { return v.chooseRun(p).estimate(p) }

// lookupRow resolves a quad to its ID row in model m without interning;
// ok is false when a term is unknown to the dictionary, so the quad
// cannot be present.
func (v *View) lookupRow(m ModelID, q rdf.Quad) (row IDQuad, ok bool) {
	d := v.st.dict
	row = IDQuad{S: d.Lookup(q.S), P: d.Lookup(q.P), C: d.Lookup(q.O), M: m}
	if !q.G.IsZero() {
		if row.G = d.Lookup(q.G); row.G == NoID {
			return row, false
		}
	}
	return row, row.S != NoID && row.P != NoID && row.C != NoID
}

// Contains reports whether the quad exists in the model.
func (v *View) Contains(model string, q rdf.Quad) bool {
	m, ok := v.modelIDs[model]
	if !ok {
		return false
	}
	row, ok := v.lookupRow(m, q)
	if !ok {
		return false
	}
	live, _ := v.runs[0].lookup(row)
	return live
}

// Quads materializes the quads matching the pattern as rdf.Quads, in
// index order. Intended for tests, export and small results.
func (v *View) Quads(p Pattern) []rdf.Quad {
	var out []rdf.Quad
	v.Scan(p, func(q IDQuad) bool {
		out = append(out, v.st.dict.Quad(q))
		return true
	})
	return out
}

// Export returns all quads of a model in deterministic order, suitable
// for N-Quads serialization.
func (v *View) Export(model string) ([]rdf.Quad, error) {
	m, ok := v.modelIDs[model]
	if !ok {
		return nil, unknownModel(model)
	}
	return v.exportModel(m), nil
}

func (v *View) exportModel(m ModelID) []rdf.Quad {
	p := AnyPattern()
	p.M = m
	quads := v.Quads(p)
	sort.Slice(quads, func(i, j int) bool { return rdf.CompareQuads(quads[i], quads[j]) < 0 })
	return quads
}
