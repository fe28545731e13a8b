package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// TestParallelLoadEquivalence: the same quads loaded with parallel
// index builds produce byte-identical scan output to a serial load.
// Bulk loads build one index per goroutine unless GOMAXPROCS is 1, so
// the two loads run at 1 and 8.
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

// allPermutations returns the 120 index keys over S, P, C, G, M.
func allPermutations() []Permutation {
	var out []Permutation
	var walk func(p Permutation, n int, used [numCols]bool)
	walk = func(p Permutation, n int, used [numCols]bool) {
		if n == int(numCols) {
			out = append(out, p)
			return
		}
		for c := ColS; c < numCols; c++ {
			if !used[c] {
				p[n], used[c] = c, true
				walk(p, n+1, used)
				used[c] = false
			}
		}
	}
	walk(Permutation{}, 0, [numCols]bool{})
	return out
}

// radixRows returns n rows built to reach every path of the radix sort:
// S has a high byte set on some rows, C spans all eight bytes, P is
// small, G is constant with its high byte set and M is constant (bytes
// skipped because one value holds every row), and every third row
// repeats an earlier one.
func radixRows(n int) []IDQuad {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]IDQuad, n)
	for i := range rows {
		if i%3 == 2 {
			rows[i] = rows[rng.Intn(i)]
			continue
		}
		rows[i] = IDQuad{
			S: ID(rng.Intn(300)) | ID(rng.Intn(3))<<56,
			P: ID(1 + rng.Intn(20)),
			C: ID(rng.Uint64()) >> uint(rng.Intn(64)),
			G: 1<<60 | 7,
			M: 2,
		}
	}
	return rows
}

// TestRadixSortMatchesLess: for every index key, the radix sort orders
// rows exactly as sort.Slice with the index's comparison, duplicates
// included, and leaves its input as it was.
func TestRadixSortMatchesLess(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 70000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rows := radixRows(n)
			orig := append([]IDQuad(nil), rows...)
			h := newRadixHist(rows)
			for _, perm := range allPermutations() {
				ix := &Index{perm: perm}
				want := append([]IDQuad(nil), rows...)
				sort.Slice(want, func(i, j int) bool { return ix.less(want[i], want[j]) })
				got := h.sort(rows, perm)
				if !slices.Equal(got, want) {
					t.Fatalf("%v: radix sort differs from sort.Slice", perm)
				}
			}
			if !slices.Equal(rows, orig) {
				t.Fatal("radix sort modified its input")
			}
		})
	}
}

// TestLoadDropsDuplicatesByAdjacency: repeats within a batch and rows a
// store already holds leave every index with the same distinct rows, a
// second Load over a non-empty base merges, and Load reports the growth.
func TestLoadDropsDuplicatesByAdjacency(t *testing.T) {
	s := New()
	if err := s.CreateIndex("GSPCM"); err != nil {
		t.Fatal(err)
	}
	mk := func(lo, hi int) []rdf.Quad {
		var quads []rdf.Quad
		for i := lo; i < hi; i++ {
			q := rdf.Quad{S: iri(fmt.Sprint("n", i%97)), P: iri(fmt.Sprint("p", i%5)), O: iri(fmt.Sprint("n", i%89))}
			quads = append(quads, q, q)
		}
		return quads
	}
	want := map[rdf.Quad]bool{}
	for _, batch := range [][]rdf.Quad{mk(0, 3000), mk(2000, 6000), mk(0, 6000)} {
		before := len(want)
		for _, q := range batch {
			want[q] = true
		}
		n, err := s.Load("m", batch)
		if err != nil || n != len(want)-before {
			t.Fatalf("Load = %d, %v; want %d new", n, err, len(want)-before)
		}
		v := s.View()
		for _, r := range v.runs {
			ix := r.ix
			if len(r.base) != len(want) || !sort.SliceIsSorted(r.base, func(i, j int) bool { return ix.less(r.base[i], r.base[j]) }) {
				t.Fatalf("%v: %d rows, want %d distinct and sorted", ix.perm, len(r.base), len(want))
			}
			for i := 1; i < len(r.base); i++ {
				if r.base[i] == r.base[i-1] {
					t.Fatalf("%v: row %d repeated", ix.perm, i)
				}
			}
		}
	}
}
