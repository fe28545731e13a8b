package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// partitionTestStore loads one model with a deterministic synthetic
// edge set large enough to split meaningfully.
func partitionTestStore(t testing.TB, n int) *Store {
	t.Helper()
	s := New()
	quads := make([]rdf.Quad, 0, n)
	for i := 0; i < n; i++ {
		quads = append(quads, rdf.Quad{
			S: iri(fmt.Sprintf("n%d", i%257)),
			P: iri(fmt.Sprintf("p%d", i%7)),
			O: iri(fmt.Sprintf("n%d", (i*31)%257)),
		})
	}
	if _, err := s.Load("m", quads); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSplitRangeProperties(t *testing.T) {
	cases := []struct{ lo, hi, n int }{
		{0, 100, 4}, {0, 100, 1}, {0, 3, 8}, {5, 6, 3}, {0, 0, 4}, {7, 7, 1},
	}
	for _, c := range cases {
		parts := splitRange(c.lo, c.hi, c.n)
		if c.lo == c.hi {
			if parts != nil {
				t.Errorf("splitRange(%d,%d,%d) = %v, want nil for empty interval", c.lo, c.hi, c.n, parts)
			}
			continue
		}
		// Parts must be contiguous, non-empty, and cover [lo, hi).
		at := c.lo
		for _, r := range parts {
			if r.Lo != at {
				t.Fatalf("splitRange(%d,%d,%d): gap or overlap at %d (got Lo=%d)", c.lo, c.hi, c.n, at, r.Lo)
			}
			if r.Len() <= 0 {
				t.Fatalf("splitRange(%d,%d,%d): empty part %+v", c.lo, c.hi, c.n, r)
			}
			at = r.Hi
		}
		if at != c.hi {
			t.Fatalf("splitRange(%d,%d,%d): covers up to %d, want %d", c.lo, c.hi, c.n, at, c.hi)
		}
		if len(parts) > c.n {
			t.Errorf("splitRange(%d,%d,%d): %d parts, want <= %d", c.lo, c.hi, c.n, len(parts), c.n)
		}
	}
}

// TestCursorPartitions verifies the cursor splitter: children are
// disjoint, ordered, cover the parent snapshot, and hand the open-
// cursor gauge over from parent to children.
func TestCursorPartitions(t *testing.T) {
	s := partitionTestStore(t, 3000)
	p := AnyPattern()

	var whole []IDQuad
	ref := s.Cursor(p)
	for {
		q, ok := ref.Next()
		if !ok {
			break
		}
		whole = append(whole, q)
	}
	ref.Close()
	if g := s.OpenCursors(); g != 0 {
		t.Fatalf("open cursors after reference drain = %d", g)
	}

	cur := s.Cursor(p)
	parts := cur.Partitions(7)
	if g := s.OpenCursors(); g != int64(len(parts)) {
		t.Fatalf("open cursors after split = %d, want %d (one per child; parent closed)", g, len(parts))
	}
	var pieced []IDQuad
	for _, pc := range parts {
		for {
			q, ok := pc.Next()
			if !ok {
				break
			}
			pieced = append(pieced, q)
		}
		pc.Close()
	}
	if g := s.OpenCursors(); g != 0 {
		t.Fatalf("open cursors after closing children = %d", g)
	}
	if len(pieced) != len(whole) {
		t.Fatalf("partitioned rows = %d, want %d", len(pieced), len(whole))
	}
	for i := range whole {
		if pieced[i] != whole[i] {
			t.Fatalf("row %d = %+v, want %+v", i, pieced[i], whole[i])
		}
	}
}

// TestCursorPartitionsEmpty: an empty snapshot still yields one valid
// (empty) child so callers need no special case.
func TestCursorPartitionsEmpty(t *testing.T) {
	s := partitionTestStore(t, 10)
	p := AnyPattern()
	p.P = s.Dict().Intern(iri("no-such-predicate"))
	parts := s.Cursor(p).Partitions(4)
	if len(parts) != 1 {
		t.Fatalf("parts = %d, want 1", len(parts))
	}
	if _, ok := parts[0].Next(); ok {
		t.Fatal("empty partition yielded a row")
	}
	parts[0].Close()
	if g := s.OpenCursors(); g != 0 {
		t.Fatalf("open cursors = %d", g)
	}
}

// TestParallelLoadEquivalence: the same quads loaded with parallel
// index builds produce byte-identical scan output to a serial load.
func TestParallelLoadEquivalence(t *testing.T) {
	mk := func(par int) *Store {
		s := New()
		if err := s.CreateIndex("GSPCM"); err != nil {
			t.Fatal(err)
		}
		s.SetParallelism(par)
		quads := make([]rdf.Quad, 0, 40000)
		for i := 0; i < 40000; i++ {
			quads = append(quads, rdf.Quad{
				S: iri(fmt.Sprintf("n%d", i%1023)),
				P: iri(fmt.Sprintf("p%d", i%11)),
				O: iri(fmt.Sprintf("n%d", (i*17)%1023)),
				G: iri(fmt.Sprintf("g%d", i%3)),
			})
		}
		if _, err := s.Load("m", quads); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := mk(1), mk(8)
	if serial.Len() != parallel.Len() {
		t.Fatalf("len: serial %d, parallel %d", serial.Len(), parallel.Len())
	}
	for _, spec := range serial.Indexes() {
		var a, b []IDQuad
		if err := serial.ScanIndex(spec, AnyPattern(), func(q IDQuad) bool { a = append(a, q); return true }); err != nil {
			t.Fatal(err)
		}
		if err := parallel.ScanIndex(spec, AnyPattern(), func(q IDQuad) bool { b = append(b, q); return true }); err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("index %s: serial %d rows, parallel %d", spec, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("index %s row %d: serial %+v, parallel %+v", spec, i, a[i], b[i])
			}
		}
	}
}

// TestSortQuadsEquivalence checks the parallel merge sort against the
// stdlib sort on inputs above the parallel threshold.
func TestSortQuadsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := parallelSortMinRows + 5000
	rows := make([]IDQuad, n)
	for i := range rows {
		rows[i] = IDQuad{
			S: ID(rng.Intn(500)), P: ID(rng.Intn(20)),
			C: ID(rng.Intn(500)), G: ID(rng.Intn(5)), M: ModelID(rng.Intn(3)),
		}
	}
	less := func(a, b IDQuad) bool {
		if a.P != b.P {
			return a.P < b.P
		}
		if a.S != b.S {
			return a.S < b.S
		}
		if a.C != b.C {
			return a.C < b.C
		}
		if a.G != b.G {
			return a.G < b.G
		}
		return a.M < b.M
	}
	want := append([]IDQuad(nil), rows...)
	sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
	for _, workers := range []int{1, 2, 8} {
		got := append([]IDQuad(nil), rows...)
		sortQuads(got, less, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}
