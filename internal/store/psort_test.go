package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// synthTestStore loads one model with a deterministic synthetic edge
// set of n quads.
func synthTestStore(t testing.TB, n int) *Store {
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

// TestParallelLoadEquivalence: the same quads loaded with parallel
// index builds produce byte-identical scan output to a serial load.
// Bulk loads use GOMAXPROCS workers, so the two loads run at 1 and 8.
func TestParallelLoadEquivalence(t *testing.T) {
	mk := func(procs int) *Store {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := New()
		if err := s.CreateIndex("GSPCM"); err != nil {
			t.Fatal(err)
		}
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
	for _, spec := range serial.View().Indexes() {
		var a, b []IDQuad
		if err := serial.View().ScanIndex(spec, AnyPattern(), func(q IDQuad) bool { a = append(a, q); return true }); err != nil {
			t.Fatal(err)
		}
		if err := parallel.View().ScanIndex(spec, AnyPattern(), func(q IDQuad) bool { b = append(b, q); return true }); err != nil {
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

// pscgmLess orders quads by P, S, C, G, M.
func pscgmLess(a, b IDQuad) bool {
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

// checkSortQuads sorts n random rows with sortQuads at each worker count
// and compares them with the stdlib sort.
func checkSortQuads(t *testing.T, n int, workers ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	rows := make([]IDQuad, n)
	for i := range rows {
		rows[i] = IDQuad{
			S: ID(rng.Intn(500)), P: ID(rng.Intn(20)),
			C: ID(rng.Intn(500)), G: ID(rng.Intn(5)), M: ModelID(rng.Intn(3)),
		}
	}
	want := append([]IDQuad(nil), rows...)
	sort.Slice(want, func(i, j int) bool { return pscgmLess(want[i], want[j]) })
	for _, w := range workers {
		got := append([]IDQuad(nil), rows...)
		sortQuads(got, pscgmLess, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: row %d = %+v, want %+v", w, i, got[i], want[i])
			}
		}
	}
}

// TestSortQuadsEquivalence checks the parallel merge sort against the
// stdlib sort on inputs above the parallel threshold.
func TestSortQuadsEquivalence(t *testing.T) {
	checkSortQuads(t, parallelSortMinRows+5000, 1, 2, 8)
}

// TestSortQuadsOddRunCount: with an odd number of sorted runs at some
// merge level, the unpaired run is carried to the next level unmerged;
// 3, 5, 6 and 7 workers each leave one behind at a different level.
func TestSortQuadsOddRunCount(t *testing.T) {
	checkSortQuads(t, parallelSortMinRows+7, 3, 5, 6, 7)
}
