package store

import (
	"fmt"
	"math/rand"
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
	s.ScanBatch(p, max, func(run []IDQuad) bool {
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
	got = nil
	for _, part := range ps.view.Cursor(ps.pat).Partitions(3) {
		for run := part.NextBatch(5); run != nil; run = part.NextBatch(5) {
			got = append(got, run...)
		}
		part.Close()
	}
	quadsEqual(t, label+": Cursor+Partitions", got, ps.rows)
	if n := ps.view.EstimateCount(ps.pat); n != ps.est {
		t.Fatalf("%s: EstimateCount = %d, was %d", label, n, ps.est)
	}
	if n := ps.view.Len(); n != ps.len {
		t.Fatalf("%s: Len = %d, was %d", label, n, ps.len)
	}
}

// TestScanBatchMatchesScan drives a randomized mutation workload
// (inserts, deletes, bulk loads, compactions, new indexes — so the
// store passes through delta-only, tombstoned and compacted states)
// against a reference set of quads. After every burst the store must
// hold exactly the reference, in index key order whatever the physical
// layout; ScanBatch must visit exactly the rows Scan visits, in the
// same order, for random patterns and batch sizes; a prefix estimate
// must be the exact count; and every View pinned at an earlier burst
// must still show, through Scan, ScanBatch, Cursor + Partitions and
// EstimateCount, exactly what it showed when it was pinned.
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
			if !ref[s.quadTerms(row)] {
				t.Fatalf("step %d: scan returned %v, not in the reference", step, s.quadTerms(row))
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
		ix := s.ChooseIndex(pat)
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
		est := s.EstimateCount(pat)
		if est < matches || (ix.prefixLen(pat) == pat.bound() && est != matches) {
			t.Fatalf("step %d: EstimateCount = %d for %d matches (prefix %d of %d bound)", step, est, matches, ix.prefixLen(pat), pat.bound())
		}

		for _, ps := range pins {
			ps.check(t)
		}
		if len(pins) == 4 {
			pins = pins[1:]
		}
		pins = append(pins, &pinnedState{step: step, view: s.View(), pat: pat, rows: want, est: est, len: len(ref)})
	}
	if n := s.OpenCursors(); n != 0 {
		t.Fatalf("open cursors = %d, want 0", n)
	}
}

// TestScanBatchEarlyStop checks that returning false from the batch
// callback stops the scan without visiting the delta tail.
func TestScanBatchEarlyStop(t *testing.T) {
	s := partitionTestStore(t, 500)
	// Leave rows in the delta buffer.
	if _, err := s.Insert("m", quad("zzz", "zzp", "zzo", "")); err != nil {
		t.Fatal(err)
	}
	calls, rows := 0, 0
	s.ScanBatch(AnyPattern(), 64, func(run []IDQuad) bool {
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

// TestCursorNextBatch checks NextBatch against Next on a twin cursor:
// same rows, same order, for several batch sizes, and nil at
// exhaustion and after Close.
func TestCursorNextBatch(t *testing.T) {
	s := partitionTestStore(t, 1100)
	for _, max := range []int{1, 13, 512, DefaultBatchRows} {
		ref := s.Cursor(AnyPattern())
		cur := s.Cursor(AnyPattern())
		var want, got []IDQuad
		for {
			q, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, q)
		}
		for {
			run := cur.NextBatch(max)
			if run == nil {
				break
			}
			if len(run) > max {
				t.Fatalf("run of %d rows with max %d", len(run), max)
			}
			got = append(got, run...)
		}
		quadsEqual(t, fmt.Sprintf("max %d", max), got, want)
		if run := cur.NextBatch(max); run != nil {
			t.Fatalf("NextBatch after exhaustion = %d rows, want nil", len(run))
		}
		ref.Close()
		cur.Close()
		if run := cur.NextBatch(max); run != nil {
			t.Fatalf("NextBatch after Close = %d rows, want nil", len(run))
		}
	}
	if n := s.OpenCursors(); n != 0 {
		t.Fatalf("open cursors = %d, want 0", n)
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
	s.ScanBatch(AnyPattern(), 64, func(run []IDQuad) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("callback ran %d times after stop, want 1", calls)
	}
}
