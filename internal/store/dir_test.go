package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// servedIndexes are the indexes a served store may carry: every
// scheme's pgrdf.RecommendedIndexes (GPSCM on NG only) and the GSPCM of
// the four benchmark/run.go builds for its oracle and prepared data dir.
var servedIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM", "GPSCM"}

// searchRange is baseRange without the directory: two binary searches
// of all the base rows.
func searchRange(r *run, p Pattern, n int) (lo, hi int) {
	lo = sort.Search(len(r.base), func(i int) bool { return !r.ix.lessPrefix(r.base[i], p, n) })
	hi = lo + sort.Search(len(r.base)-lo, func(i int) bool { return r.ix.greaterPrefix(r.base[lo+i], p, n) })
	return lo, hi
}

// dirQuads returns n random quads over a small vocabulary, a fifth of
// them in the default graph, so the runs' first columns repeat values,
// skip values and hold NoID.
func dirQuads(rng *rand.Rand, n int) []rdf.Quad {
	quads := make([]rdf.Quad, n)
	for i := range quads {
		quads[i] = rdf.Quad{
			S: iri(fmt.Sprintf("s%d", rng.Intn(40))),
			P: iri(fmt.Sprintf("p%d", rng.Intn(6))),
			O: iri(fmt.Sprintf("o%d", rng.Intn(40))),
		}
		if rng.Intn(5) > 0 {
			quads[i].G = iri(fmt.Sprintf("g%d", rng.Intn(12)))
		}
	}
	return quads
}

// checkRunRanges compares, on every run of v, baseRange with searchRange
// for key prefixes of length 1 to 5 whose first column is every ID from
// below the run's span to above it, NoID and scratch IDs, and whose
// later columns come from the run's rows or are random. want says
// whether the runs must have a directory.
func checkRunRanges(t *testing.T, label string, v *View, rng *rand.Rand, want bool) {
	t.Helper()
	firsts := []ID{scratchBase, scratchBase + 7, Any - 1}
	for id := NoID; id <= ID(v.st.dict.Len())+3; id++ {
		firsts = append(firsts, id)
	}
	for i := range v.runs {
		r := &v.runs[i]
		lbl := fmt.Sprintf("%s %s (%d rows)", label, r.ix.perm, len(r.base))
		if has := r.dir.starts != nil; has != want {
			t.Fatalf("%s: directory %v, want %v", lbl, has, want)
		}
		if len(r.base) == 0 {
			t.Fatalf("%s: no rows", lbl)
		}
		for _, first := range firsts {
			for n := 1; n <= int(numCols); n++ {
				for k := 0; k < 3; k++ {
					// Later columns from a row (k 0: a row holding first,
					// when there is one), or random.
					row := r.base[rng.Intn(len(r.base))]
					if k == 0 {
						if lo, hi := searchRange(r, patternOf(r, IDQuad{}, first, 1), 1); lo < hi {
							row = r.base[lo+rng.Intn(hi-lo)]
						}
					}
					if k == 2 {
						row = IDQuad{S: ID(rng.Intn(60)), P: ID(rng.Intn(60)), C: ID(rng.Intn(60)), G: ID(rng.Intn(60)), M: ID(rng.Intn(3))}
					}
					p := patternOf(r, row, first, n)
					glo, ghi := r.baseRange(p, n)
					wlo, whi := searchRange(r, p, n)
					if glo != wlo || ghi != whi {
						t.Fatalf("%s: prefix %d of %+v: range [%d, %d), search gives [%d, %d)", lbl, n, p, glo, ghi, wlo, whi)
					}
				}
			}
		}
	}
}

// patternOf binds r's first n key columns: the first to first, the
// others to row's values.
func patternOf(r *run, row IDQuad, first ID, n int) Pattern {
	p := AnyPattern()
	for i, c := range r.ix.perm[:n] {
		v := row.Get(c)
		if i == 0 {
			v = first
		}
		setCol(&p, c, v)
	}
	return p
}

// TestRunDirectoryMatchesSearch: a run's base range through its
// first-column directory is exactly the range two binary searches of
// the base rows give, on runs of every served permutation made by each
// path that builds a base array — Load, Apply then Compact, CreateIndex
// and RestoreBinary — and a run whose first column spans more than
// DirSpan IDs per row has no directory and searches.
func TestRunDirectoryMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for round := 0; round < 4; round++ {
		quads := dirQuads(rng, 300+rng.Intn(500))
		half := len(quads) / 2

		loaded, err := NewWithIndexes(servedIndexes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Load("m", quads[:half]); err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Load("n", quads[half:]); err != nil {
			t.Fatal(err)
		}
		checkRunRanges(t, fmt.Sprintf("round %d Load", round), loaded.View(), rng, true)

		// Apply inserts the second half and deletes some of the first:
		// the ranges are over base rows and a delta stays beside them,
		// then Compact folds it into new base arrays.
		applied, err := NewWithIndexes(servedIndexes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := applied.Load("m", quads[:half]); err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for _, q := range quads[half:] {
			ops = append(ops, Op{Model: "m", Quad: q})
		}
		for i := 0; i < half; i += 3 {
			ops = append(ops, Op{Delete: true, Model: "m", Quad: quads[i]})
		}
		if _, _, err := applied.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if ws := applied.WriteStats(); ws.DeltaRows == 0 || ws.Tombstones == 0 {
			t.Fatalf("round %d: Apply left %d delta rows and %d tombstones, want both", round, ws.DeltaRows, ws.Tombstones)
		}
		checkRunRanges(t, fmt.Sprintf("round %d Apply", round), applied.View(), rng, true)
		applied.Compact()
		checkRunRanges(t, fmt.Sprintf("round %d Apply+Compact", round), applied.View(), rng, true)

		// CreateIndex builds every served index but the first from the
		// first's base rows in one pass, here beside a delta.
		created, err := NewWithIndexes(servedIndexes[:1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := created.Load("m", quads[:half]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := created.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if err := created.CreateIndex(servedIndexes[1:]...); err != nil {
			t.Fatal(err)
		}
		checkRunRanges(t, fmt.Sprintf("round %d CreateIndex", round), created.View(), rng, true)

		restored, err := RestoreBinary(snapshotBinary(t, applied))
		if err != nil {
			t.Fatal(err)
		}
		checkRunRanges(t, fmt.Sprintf("round %d RestoreBinary", round), restored.View(), rng, true)
	}

	// Twelve rows whose every column holds the first or the last of
	// 200 interned terms: each run's first column spans 200 IDs, past
	// DirSpan per row, so no run builds a directory and every range is
	// searched.
	sparse, err := NewWithIndexes(servedIndexes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sparse.Dict().Intern(iri(fmt.Sprintf("t%d", i)))
	}
	var quads []rdf.Quad
	for i := 0; i < 12; i++ {
		at := func(bit int) rdf.Term { return iri(fmt.Sprintf("t%d", 199*(i>>bit&1))) }
		quads = append(quads, rdf.Quad{S: at(0), P: at(1), O: at(2), G: at(3)})
	}
	if _, err := sparse.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	checkRunRanges(t, "sparse", sparse.View(), rng, false)
}

// BenchmarkRangeLocate times locating a key range of a 200 000-row run
// — the NG lookup store's subject-first index (SPCGM) — by a one-column
// prefix (a subject) and a two-column prefix (subject and predicate),
// through the run's first-column directory and by binary search of all
// its rows. Run via `make bench-micro`.
func BenchmarkRangeLocate(b *testing.B) {
	s, err := NewWithIndexes([]string{"SPCGM"})
	if err != nil {
		b.Fatal(err)
	}
	quads := make([]rdf.Quad, 0, 200000)
	for i := 0; len(quads) < cap(quads); i++ {
		topo, kv := ngEdge(i)
		quads = append(quads, topo, kv)
	}
	if _, err := s.Load("data", quads); err != nil {
		b.Fatal(err)
	}
	dir := &s.View().runs[0]
	if len(dir.base) != 200000 || dir.dir.starts == nil {
		b.Fatalf("%d rows, directory %v; want 200000 rows and a directory", len(dir.base), dir.dir.starts != nil)
	}
	search := &run{ix: dir.ix, base: dir.base}
	// Probe keys: every 97th row's subject and predicate, shuffled so
	// the probes do not walk the array in order.
	var keys []IDQuad
	for i := 0; i < len(dir.base); i += 97 {
		keys = append(keys, dir.base[i])
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, n := range []int{1, 2} {
		for _, leg := range []struct {
			name string
			r    *run
		}{{"dir", dir}, {"search", search}} {
			b.Run(fmt.Sprintf("prefix%d/%s", n, leg.name), func(b *testing.B) {
				rows := 0
				for i := 0; i < b.N; i++ {
					q := keys[i%len(keys)]
					p := AnyPattern()
					p.S = q.S
					if n == 2 {
						p.P = q.P
					}
					lo, hi := leg.r.baseRange(p, n)
					rows += hi - lo
				}
				benchSink = rows
			})
		}
	}
}
