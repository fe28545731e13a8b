package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// collectScan drains a row scan into a slice.
func collectScan(s *Store, p Pattern) []IDQuad {
	var out []IDQuad
	s.Scan(p, func(q IDQuad) bool {
		out = append(out, q)
		return true
	})
	return out
}

// collectScanBatch drains a batched scan, copying each run (the runs
// are only valid during the callback).
func collectScanBatch(s *Store, p Pattern, max int) []IDQuad {
	var out []IDQuad
	s.View().ScanBatch(p, max, func(run []IDQuad) bool {
		out = append(out, run...)
		return true
	})
	return out
}

func quadsEqual(t *testing.T, label string, got, want []IDQuad) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// pinnedState is a View pinned during the mutation walk together with
// what it showed at that moment.
type pinnedState struct {
	step int
	view *View
	pat  Pattern
	rows []IDQuad // view.Scan(pat)
	est  int      // view.EstimateCount(pat)
	len  int

	seek     seekCase
	seekRows []IDQuad // the seek's rows, copied
}

// seekCase is one Seek: the index, the constant pattern the seeker is
// opened with, and the pattern it seeks.
type seekCase struct {
	ix            *Index
	konst, narrow Pattern
}

// run opens a seeker on v and seeks once. merged reports whether the
// rows came from the delta merge rather than the base array.
func (c seekCase) run(v *View) (rows []IDQuad, merged bool) {
	s := v.Seeker(c.ix, c.konst)
	rows = s.Seek(c.narrow)
	return rows, len(rows) > 0 && len(s.buf) > 0 && &rows[0] == &s.buf[0]
}

// randomSeek picks an index of v, a key prefix of 1–3 columns taking
// their values from row (so the range is usually non-empty), and a
// constant prefix of 0..n of those columns.
func randomSeek(rng *rand.Rand, v *View, row IDQuad) seekCase {
	r := &v.runs[rng.Intn(len(v.runs))]
	n := 1 + rng.Intn(3)
	c := seekCase{ix: r.ix, konst: AnyPattern(), narrow: AnyPattern()}
	n0 := rng.Intn(n + 1)
	for i, col := range r.ix.perm[:n] {
		val := row.Get(col)
		if rng.Intn(8) == 0 {
			val = ID(rng.Intn(40) + 1) // an arbitrary, often absent, value
		}
		setCol(&c.narrow, col, val)
		if i < n0 {
			setCol(&c.konst, col, val)
		}
	}
	return c
}

func setCol(p *Pattern, c Col, v ID) {
	switch c {
	case ColS:
		p.S = v
	case ColP:
		p.P = v
	case ColC:
		p.C = v
	case ColG:
		p.G = v
	default:
		p.M = v
	}
}

// checkSeek checks one Seek against ScanIndex on the same index (key
// order, same prefix), seekCol against the rows' next key column, and
// the rows of one value of that column against ScanIndex with it bound
// too. It reports whether the rows came from the delta merge.
func checkSeek(t *testing.T, label string, v *View, c seekCase, rng *rand.Rand) bool {
	t.Helper()
	got, merged := c.run(v)
	var want []IDQuad
	spec := c.ix.Perm().String()
	if err := v.ScanIndex(spec, c.narrow, func(q IDQuad) bool { want = append(want, q); return true }); err != nil {
		t.Fatal(err)
	}
	quadsEqual(t, label+": Seek", got, want)
	col := c.ix.Perm()[len(c.narrow.BoundCols())]
	id := ID(rng.Intn(40) + 1)
	if len(got) > 0 && rng.Intn(2) == 0 {
		id = got[rng.Intn(len(got))].Get(col)
	}
	from := 0
	if len(got) > 0 {
		from = rng.Intn(len(got))
		if got[from].Get(col) >= id {
			from = 0
		}
	}
	lo := seekCol(got, from, col, id)
	hi := seekCol(got, lo, col, id+1)
	for i, q := range got {
		if (i >= from && i < lo) && q.Get(col) >= id || i >= lo && q.Get(col) < id {
			t.Fatalf("%s: seekCol(from %d, %s >= %d) = %d, row %d has %d", label, from, col, id, lo, i, q.Get(col))
		}
	}
	one := c.narrow
	setCol(&one, col, id)
	want = want[:0]
	if err := v.ScanIndex(spec, one, func(q IDQuad) bool { want = append(want, q); return true }); err != nil {
		t.Fatal(err)
	}
	quadsEqual(t, fmt.Sprintf("%s: rows with %s = %d", label, col, id), got[lo:hi], want)
	return merged
}

func (ps *pinnedState) check(t *testing.T) {
	t.Helper()
	label := fmt.Sprintf("view pinned at step %d", ps.step)
	var got []IDQuad
	ps.view.Scan(ps.pat, func(q IDQuad) bool { got = append(got, q); return true })
	quadsEqual(t, label+": Scan", got, ps.rows)
	got = nil
	ps.view.ScanBatch(ps.pat, 7, func(run []IDQuad) bool { got = append(got, run...); return true })
	quadsEqual(t, label+": ScanBatch", got, ps.rows)
	if n := ps.view.EstimateCount(ps.pat); n != ps.est {
		t.Fatalf("%s: EstimateCount = %d, was %d", label, n, ps.est)
	}
	if n := ps.view.Len(); n != ps.len {
		t.Fatalf("%s: Len = %d, was %d", label, n, ps.len)
	}
	got, _ = ps.seek.run(ps.view)
	quadsEqual(t, label+": Seek", got, ps.seekRows)
}

// TestScanBatchMatchesScan drives a randomized mutation workload
// (inserts, deletes, bulk loads, compactions, new indexes — so the
// store passes through delta-only, tombstoned and compacted states)
// against a reference set of quads. After every burst the store must
// hold exactly the reference, in index key order whatever the physical
// layout; ScanBatch must visit exactly the rows Scan visits, in the
// same order, for random patterns and batch sizes; a prefix estimate
// must be the exact count; a Seek on every index must return what a
// forced-index scan of the same prefix does, and the rows seekCol
// delimits for one value of the next key column what a scan with that
// value bound too does — through the zero-copy path and through the
// delta merge, both of which must occur; and every View pinned at an
// earlier burst must still show, through Scan, ScanBatch,
// EstimateCount and Seek, exactly what it showed when it was pinned.
func TestScanBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	ref := make(map[rdf.Quad]bool)
	randQuad := func() rdf.Quad {
		g := ""
		if rng.Intn(2) == 0 {
			g = fmt.Sprintf("g%d", rng.Intn(3))
		}
		return quad(
			fmt.Sprintf("s%d", rng.Intn(10)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(10)),
			g)
	}
	var pins []*pinnedState
	merged, zeroCopy := 0, 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case step == 200:
			if err := s.CreateIndex("SPCGM"); err != nil {
				t.Fatal(err)
			}
		case step == 400:
			if err := s.CreateIndex("GSPCM"); err != nil {
				t.Fatal(err)
			}
		case op == 0:
			batch := make([]rdf.Quad, rng.Intn(30))
			fresh := 0
			for i := range batch {
				batch[i] = randQuad()
				if !ref[batch[i]] {
					fresh++
				}
				ref[batch[i]] = true
			}
			if n, err := s.Load("m", batch); err != nil || n != fresh {
				t.Fatalf("step %d: Load = %d, %v; want %d", step, n, err, fresh)
			}
		case op <= 3:
			q := randQuad()
			if ok, err := s.Delete("m", q); err != nil || ok != ref[q] {
				t.Fatalf("step %d: Delete = %v, %v; want %v", step, ok, err, ref[q])
			}
			delete(ref, q)
		case op == 4:
			s.Compact()
		default:
			q := randQuad()
			if ok, err := s.Insert("m", q); err != nil || ok == ref[q] {
				t.Fatalf("step %d: Insert = %v, %v; want %v", step, ok, err, !ref[q])
			}
			ref[q] = true
		}
		if step%15 != 14 {
			continue
		}

		// The store holds exactly the reference.
		all := collectScan(s, AnyPattern())
		if len(all) != len(ref) || s.Len() != len(ref) {
			t.Fatalf("step %d: scan saw %d quads, Len %d, reference has %d", step, len(all), s.Len(), len(ref))
		}
		for _, row := range all {
			if !ref[s.dict.Quad(row)] {
				t.Fatalf("step %d: scan returned %v, not in the reference", step, s.dict.Quad(row))
			}
		}

		pat := AnyPattern()
		if rng.Intn(2) == 0 {
			pat.P = s.Dict().Lookup(iri(fmt.Sprintf("p%d", rng.Intn(4))))
		}
		if rng.Intn(3) == 0 {
			pat.S = s.Dict().Lookup(iri(fmt.Sprintf("s%d", rng.Intn(10))))
		}
		want := collectScan(s, pat)
		ix := s.View().ChooseIndex(pat)
		matches := 0
		for _, row := range all {
			if pat.Matches(row) {
				matches++
			}
		}
		if len(want) != matches {
			t.Fatalf("step %d: pattern scan saw %d rows, %d of the full scan match", step, len(want), matches)
		}
		for i := 1; i < len(want); i++ {
			if !ix.less(want[i-1], want[i]) {
				t.Fatalf("step %d: rows %d and %d out of %s order", step, i-1, i, ix.Perm())
			}
		}
		for _, max := range []int{1, 3, 64, DefaultBatchRows} {
			got := collectScanBatch(s, pat, max)
			quadsEqual(t, fmt.Sprintf("step %d max %d", step, max), got, want)
		}
		// max <= 0 falls back to the default batch size.
		quadsEqual(t, fmt.Sprintf("step %d default", step), collectScanBatch(s, pat, 0), want)

		// The estimate is the live size of the prefix range: an upper
		// bound always, exact when the bound columns are the prefix.
		est := s.View().EstimateCount(pat)
		if est < matches || (ix.prefixLen(pat) == pat.bound() && est != matches) {
			t.Fatalf("step %d: EstimateCount = %d for %d matches (prefix %d of %d bound)", step, est, matches, ix.prefixLen(pat), pat.bound())
		}

		view := s.View()
		var sc seekCase
		for i := 0; i < 8; i++ {
			var row IDQuad
			if len(all) > 0 {
				row = all[rng.Intn(len(all))]
			}
			sc = randomSeek(rng, view, row)
			label := fmt.Sprintf("step %d seek %s %+v in %+v", step, sc.ix.Perm(), sc.narrow, sc.konst)
			if checkSeek(t, label, view, sc, rng) {
				merged++
			} else {
				zeroCopy++
			}
		}

		for _, ps := range pins {
			ps.check(t)
		}
		if len(pins) == 4 {
			pins = pins[1:]
		}
		seekRows, _ := sc.run(view)
		pins = append(pins, &pinnedState{step: step, view: view, pat: pat, rows: want, est: est, len: len(ref),
			seek: sc, seekRows: append([]IDQuad(nil), seekRows...)})
	}
	if merged == 0 || zeroCopy == 0 {
		t.Fatalf("seeks: %d merged with the delta, %d zero-copy; want both paths", merged, zeroCopy)
	}
}

// TestSeekerReuse seeks one seeker repeatedly — the same pattern twice
// in a row, then others — on a store with rows in the delta: each Seek
// must return its own pattern's rows whatever the seeker served before.
func TestSeekerReuse(t *testing.T) {
	s := synthTestStore(t, 300)
	for i := 0; i < 40; i++ {
		if _, err := s.Insert("m", quad(fmt.Sprintf("s%d", i%7), "p", fmt.Sprintf("new%d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	v := s.View()
	konst := AnyPattern()
	konst.P = s.Dict().Lookup(iri("p"))
	sk := v.Seeker(v.SeekIndex([]Col{ColP, ColS}, ColC), konst)
	for i, subj := range []string{"s1", "s1", "s3", "s1", "nosuch", "s3", "s3"} {
		p := konst
		p.S = s.Dict().Lookup(iri(subj))
		var want []IDQuad
		if err := v.ScanIndex("PSCGM", p, func(q IDQuad) bool { want = append(want, q); return true }); err != nil {
			t.Fatal(err)
		}
		quadsEqual(t, fmt.Sprintf("seek %d (%s)", i, subj), sk.Seek(p), want)
	}
}

// TestSeekerDirectoryMatchesFresh checks the Seeker's directory: once
// enough one-column narrows have built it, a seeker must Seek,
// for every ID the dictionary holds and two past it, the same rows as a
// fresh seeker, which searches the rows — values the range holds,
// absent ones between them, ones below its first and above its last,
// values only delta inserts hold and runs whose every row is
// tombstoned. It runs three seek shapes through the zero-copy and the
// merge paths, on the loaded store, with delta entries, after Load and
// Compact, and on every view pinned before those.
func TestSeekerDirectoryMatchesFresh(t *testing.T) {
	s := New()
	// ID 1 is no predicate and no subject or object of p: a value below
	// every directory's first.
	if _, err := s.Load("m", []rdf.Quad{quad("zz", "q", "zz2", "")}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var quads []rdf.Quad
	for i := 0; i < 300; i++ {
		for j := rng.Intn(5); j > 0; j-- {
			g := ""
			if rng.Intn(3) == 0 {
				g = "g"
			}
			quads = append(quads, quad(fmt.Sprintf("s%d", i), []string{"p", "q"}[rng.Intn(2)], fmt.Sprintf("o%d", rng.Intn(90)), g))
		}
	}
	if _, err := s.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	p := s.Dict().Lookup(iri("p"))
	shapes := []struct {
		bound []Col
		next  Col
	}{{[]Col{ColP}, ColS}, {[]Col{ColP}, ColC}, {nil, ColP}}
	var merged, zeroCopy, deltaOnly, tombstoned, below, above int
	check := func(label string, v *View) {
		t.Helper()
		last := ID(s.Dict().Len() + 2)
		for _, sh := range shapes {
			ix := v.SeekIndex(sh.bound, sh.next)
			konst := AnyPattern()
			if len(sh.bound) > 0 {
				konst.P = p
			}
			narrow := func(id ID) Pattern {
				q := konst
				setCol(&q, sh.next, id)
				return q
			}
			warm := v.Seeker(ix, konst)
			builtAt := 0
			for n := 1; builtAt == 0; n++ {
				warm.Seek(narrow(ID(n)))
				if built, dir := warm.LastSeek(); built > 0 {
					if built != len(warm.base) || !dir || len(warm.dirVals) == 0 {
						t.Fatalf("%s %s: narrow %d built %d of %d rows, dir %v", label, ix.Perm(), n, built, len(warm.base), dir)
					}
					builtAt = n
				} else if dir {
					t.Fatalf("%s %s: narrow %d used a directory before building it", label, ix.Perm(), n)
				}
			}
			if want := (len(warm.base) + DirPayback - 1) / DirPayback; builtAt != max(1, want) {
				t.Fatalf("%s %s: built the directory at narrow %d of a %d-row range, want %d", label, ix.Perm(), builtAt, len(warm.base), want)
			}
			vals := warm.dirVals
			for id := ID(1); id <= last; id++ {
				lbl := fmt.Sprintf("%s %s: %s = %d", label, ix.Perm(), sh.next, id)
				got := warm.Seek(narrow(id))
				if built, dir := warm.LastSeek(); built != 0 || !dir {
					t.Fatalf("%s: built %d, dir %v; want the built directory", lbl, built, dir)
				}
				fresh := v.Seeker(ix, konst)
				quadsEqual(t, lbl, got, fresh.Seek(narrow(id)))
				if _, dir := fresh.LastSeek(); dir {
					t.Fatalf("%s: a fresh seeker used a directory", lbl)
				}
				held := slices.Contains(vals, id)
				switch {
				case len(got) > 0 && len(warm.buf) > 0 && &got[0] == &warm.buf[0]:
					merged++
				case len(got) > 0:
					zeroCopy++
				}
				switch {
				case id < vals[0]:
					below++
				case id > vals[len(vals)-1]:
					above++
				case held && len(got) == 0:
					tombstoned++
				case !held && len(got) > 0:
					deltaOnly++
				}
			}
		}
	}
	var pins []*View
	state := func(label string) {
		t.Helper()
		v := s.View()
		check(label, v)
		for i, pv := range pins {
			check(fmt.Sprintf("view pinned at state %d, after %s", i, label), pv)
		}
		pins = append(pins, v)
	}
	state("loaded")
	mutate := func() {
		t.Helper()
		for i := 0; i < 60; i++ {
			// New subjects (delta-only values above the base's last),
			// objects as subjects (delta-only values between its
			// values), and rows inside existing runs.
			subj := []string{fmt.Sprintf("new%d", i), fmt.Sprintf("o%d", rng.Intn(90)), fmt.Sprintf("s%d", rng.Intn(300))}[i%3]
			if _, err := s.Insert("m", quad(subj, "p", fmt.Sprintf("o%d", rng.Intn(90)), "")); err != nil {
				t.Fatal(err)
			}
		}
		// Tombstone every row of a few subjects' runs.
		for _, q := range quads[:len(quads)/8] {
			if _, err := s.Delete("m", q); err != nil {
				t.Fatal(err)
			}
		}
		quads = quads[len(quads)/8:]
	}
	mutate()
	state("delta")
	if _, err := s.Load("m", []rdf.Quad{quad("s3", "p", "loaded", ""), quad("late", "p", "o1", "g")}); err != nil {
		t.Fatal(err)
	}
	state("load")
	mutate()
	state("delta again")
	s.Compact()
	state("compacted")
	if merged == 0 || zeroCopy == 0 || deltaOnly == 0 || tombstoned == 0 || below == 0 || above == 0 {
		t.Fatalf("seeks: %d merged, %d zero-copy, %d delta-only, %d tombstoned, %d below, %d above; want each",
			merged, zeroCopy, deltaOnly, tombstoned, below, above)
	}
}

// TestMarksAcrossSeeks marks the rows of Seeks that merge delta rows
// into the seeker's buffer, which each next Seek overwrites before the
// old marks are cleared: after Clear and Mark, a Probe walk of every row
// of the predicate must hit exactly the values of the latest Seek.
func TestMarksAcrossSeeks(t *testing.T) {
	s := synthTestStore(t, 300)
	for i := 0; i < 40; i++ {
		if _, err := s.Insert("m", quad(fmt.Sprintf("s%d", i%7), "p", fmt.Sprintf("new%d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	v := s.View()
	konst := AnyPattern()
	konst.P = s.Dict().Lookup(iri("p"))
	all := append([]IDQuad(nil), v.Seeker(v.SeekIndex([]Col{ColP}, ColC), konst).Seek(konst)...)
	sk := v.Seeker(v.SeekIndex([]Col{ColP, ColS}, ColC), konst)
	var m Marks
	for i, subj := range []string{"s1", "s3", "s1", "nosuch", "s5", "s5"} {
		p := konst
		p.S = s.Dict().Lookup(iri(subj))
		rows := sk.Seek(p)
		m.Clear()
		m.Mark(rows, ColC, nil)
		want := map[ID]bool{}
		for _, q := range rows {
			want[q.C] = true
		}
		got := map[ID]bool{}
		sides, pos := [][]IDQuad{rows, all}, []int{0, 0}
		for {
			x, _, ok := m.Probe(sides, []Col{ColC, ColC}, pos, 0)
			if !ok {
				break
			}
			if pos[0] == len(rows) || rows[pos[0]].C != x {
				t.Fatalf("seek %d (%s): Probe hit %d, which the marked side does not hold", i, subj, x)
			}
			got[x] = true
			pos[1]++
		}
		if len(got) != len(want) {
			t.Fatalf("seek %d (%s): Probe hit %d values, the Seek holds %d", i, subj, len(got), len(want))
		}
		for x := range want {
			if !got[x] {
				t.Fatalf("seek %d (%s): Probe missed %d", i, subj, x)
			}
		}
	}
}

// TestMarksSum checks Sum against counting both sides row by row: for
// random sorted sides — values on one row each or on several, every row
// visible or a third of them hidden — walked by S, C and G, Sum must
// return the sum over common values of the product of each side's
// visible rows holding it, the last value whose product is nonzero, and
// a cost of the rows walked plus, for marks that are not simple, the
// marked rows of the common values.
func TestMarksSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	side := func(c Col, n int, repeat bool) []IDQuad {
		rows := make([]IDQuad, n)
		for i := range rows {
			setQuadCol(&rows[i], c, ID(rng.Intn(3*n+1)+1))
			rows[i].M = ID(rng.Intn(3))
			if !repeat {
				setQuadCol(&rows[i], c, ID(3*i+rng.Intn(3)+1))
			}
		}
		slices.SortFunc(rows, func(a, b IDQuad) int { return int(a.Get(c)) - int(b.Get(c)) })
		return rows
	}
	var m Marks
	kinds := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		cols := []Col{ColS, ColC, ColG}
		mc, wc := cols[rng.Intn(3)], cols[trial%3]
		var visible func(IDQuad) bool
		if trial%2 == 1 {
			visible = func(q IDQuad) bool { return q.M != 0 }
		}
		marked := side(mc, rng.Intn(40), trial%4 >= 2)
		walked := side(wc, rng.Intn(200), rng.Intn(2) == 0)
		count := func(rows []IDQuad, c Col, x ID) (n, vis int64) {
			for _, q := range rows {
				if q.Get(c) == x {
					n++
					if visible == nil || visible(q) {
						vis++
					}
				}
			}
			return n, vis
		}
		var want int64
		wantLast, wantCost := NoID, len(walked)
		simple := true
		for i, q := range marked {
			simple = simple && (visible == nil || visible(q)) && (i == 0 || q.Get(mc) != marked[i-1].Get(mc))
		}
		for i, q := range walked {
			x := q.Get(wc)
			if i > 0 && walked[i-1].Get(wc) == x {
				continue
			}
			mn, mv := count(marked, mc, x)
			_, wv := count(walked, wc, x)
			if mn == 0 {
				continue
			}
			if !simple && wv > 0 {
				wantCost += int(mn)
			}
			if mv*wv > 0 {
				want, wantLast = want+mv*wv, x
			}
		}
		m.Clear()
		m.Mark(marked, mc, visible)
		kinds[simple]++
		mi := 1 // the marked side's index
		if trial%5 == 0 {
			mi = 0
		}
		rows, c, pos := make([][]IDQuad, 2), make([]Col, 2), []int{0, 0}
		rows[mi], c[mi], rows[1-mi], c[1-mi] = marked, mc, walked, wc
		got, last, cost := m.Sum(rows, c, pos, mi, visible)
		if got != want || last != wantLast || cost != wantCost || pos[1-mi] != len(walked) {
			t.Fatalf("trial %d (simple %v): Sum = %d last %d cost %d, walked to %d; want %d last %d cost %d, walked to %d",
				trial, simple, got, last, cost, pos[1-mi], want, wantLast, wantCost, len(walked))
		}
	}
	if kinds[true] == 0 || kinds[false] == 0 {
		t.Fatalf("marks simple/not simple: %v", kinds)
	}
}

// setQuadCol sets column c of q.
func setQuadCol(q *IDQuad, c Col, v ID) {
	switch c {
	case ColS:
		q.S = v
	case ColP:
		q.P = v
	case ColC:
		q.C = v
	case ColG:
		q.G = v
	}
}

// TestScanBatchEarlyStop checks that returning false from the batch
// callback stops the scan without visiting the delta tail.
func TestScanBatchEarlyStop(t *testing.T) {
	s := synthTestStore(t, 500)
	// Leave rows in the delta buffer.
	if _, err := s.Insert("m", quad("zzz", "zzp", "zzo", "")); err != nil {
		t.Fatal(err)
	}
	calls, rows := 0, 0
	s.View().ScanBatch(AnyPattern(), 64, func(run []IDQuad) bool {
		calls++
		rows += len(run)
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("callback ran %d times, want 2", calls)
	}
	if rows != 128 {
		t.Fatalf("saw %d rows before stop, want 128", rows)
	}
}

// TestScanBatchUnderFaultInjector checks that the batched scan
// degrades to the per-row path when an injector is installed: the
// injector observes every row, and the visited rows stay identical.
func TestScanBatchUnderFaultInjector(t *testing.T) {
	s := faultTestStore(t, 300)
	// Leave rows in the delta and tombstones on base rows.
	for i := 0; i < 20; i++ {
		if _, err := s.Insert("m", quad(fmt.Sprintf("new%d", i), "p", "o", "")); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.Delete("m", rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://s%d", i*7)), P: rdf.NewIRI("http://p"), O: rdf.NewIRI(fmt.Sprintf("http://o%d", i*7%7))}); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	want := collectScan(s, AnyPattern())
	if len(want) != 300 {
		t.Fatalf("fixture has %d rows, want 300", len(want))
	}
	fi := NewFaultInjector()
	s.SetFaultInjector(fi)
	defer s.SetFaultInjector(nil)
	got := collectScanBatch(s, AnyPattern(), 64)
	quadsEqual(t, "fault path", got, want)
	if fi.Scanned() != int64(len(want)) {
		t.Fatalf("injector observed %d rows, want %d", fi.Scanned(), len(want))
	}
	// Early stop through the fault bridge.
	calls := 0
	s.View().ScanBatch(AnyPattern(), 64, func(run []IDQuad) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("callback ran %d times after stop, want 1", calls)
	}
}
