package store

import "sort"

// DatasetStats summarizes a set of models the way Table 8 of the paper
// does: distinct subjects, predicates, objects and named graphs, plus the
// quad count.
type DatasetStats struct {
	Quads       int
	Subjects    int
	Predicates  int
	Objects     int
	NamedGraphs int
}

// Stats computes DatasetStats over the union of the given models (all
// models when none are given).
func (v *View) Stats(models ...string) (DatasetStats, error) {
	var ids []ModelID
	if len(models) == 0 {
		var err error
		ids, err = v.ResolveDataset("")
		if err != nil {
			return DatasetStats{}, err
		}
	} else {
		for _, m := range models {
			sub, err := v.ResolveDataset(m)
			if err != nil {
				return DatasetStats{}, err
			}
			ids = append(ids, sub...)
		}
	}
	subs := make(map[ID]struct{})
	preds := make(map[ID]struct{})
	objs := make(map[ID]struct{})
	graphs := make(map[ID]struct{})
	var st DatasetStats
	for _, m := range ids {
		p := AnyPattern()
		p.M = m
		v.Scan(p, func(q IDQuad) bool {
			st.Quads++
			subs[q.S] = struct{}{}
			preds[q.P] = struct{}{}
			objs[q.C] = struct{}{}
			if q.G != NoID {
				graphs[q.G] = struct{}{}
			}
			return true
		})
	}
	st.Subjects = len(subs)
	st.Predicates = len(preds)
	st.Objects = len(objs)
	st.NamedGraphs = len(graphs)
	return st, nil
}

// IndexStats reports per-index scan counters, keyed by index spec.
type IndexStats struct {
	Spec       string
	Rows       int
	RangeScans int64
	FullScans  int64
}

// Stats is View.Stats on the current version.
func (s *Store) Stats(models ...string) (DatasetStats, error) { return s.View().Stats(models...) }

// IndexStatsSnapshot returns the current per-index counters.
func (s *Store) IndexStatsSnapshot() []IndexStats {
	v := s.View()
	out := make([]IndexStats, 0, len(v.runs))
	for i := range v.runs {
		r := &v.runs[i]
		out = append(out, IndexStats{
			Spec:       r.ix.perm.String(),
			Rows:       len(r.base),
			RangeScans: r.ix.rangeScans.Load(),
			FullScans:  r.ix.fullScans.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec < out[j].Spec })
	return out
}

// ResetIndexStats zeroes the per-index scan counters.
func (s *Store) ResetIndexStats() {
	v := s.View()
	for i := range v.runs {
		v.runs[i].ix.rangeScans.Store(0)
		v.runs[i].ix.fullScans.Store(0)
	}
}

// WriteStats describes the write path from the outside: how much
// unmerged delta the current version carries — what a scan merges on
// top of the base arrays — and how often and for how long writers have
// compacted and published.
type WriteStats struct {
	Version           uint64
	DeltaRows         int // inserts not yet compacted into the base arrays
	Tombstones        int // base rows deleted but not yet compacted away
	Compactions       int64
	CompactionNanos   int64
	VersionsPublished int64
}

// WriteStats returns the current write-path gauges and counters.
func (s *Store) WriteStats() WriteStats {
	v := s.View()
	return WriteStats{
		Version:           v.Version,
		DeltaRows:         v.inserts,
		Tombstones:        v.tombs,
		Compactions:       s.compactions.Load(),
		CompactionNanos:   s.compactionNanos.Load(),
		VersionsPublished: s.published.Load(),
	}
}
