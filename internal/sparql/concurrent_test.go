package sparql

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Readers beside a writer: the two failures of the one-RWMutex store
// (ROADMAP item 1). Both tests hang or fail on a store whose scans hold
// a read lock across their callback; `make store-race` runs them under
// the race detector.

// ngLookupStore is a small NG-encoded follows graph: every edge is a
// quad in its own named graph, tagged there with one of eight tags.
func ngLookupStore(t testing.TB, nodes, degree int) *store.Store {
	t.Helper()
	st, err := store.NewWithIndexes([]string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"})
	if err != nil {
		t.Fatal(err)
	}
	var quads []rdf.Quad
	for i := 0; i < nodes; i++ {
		for d := 1; d <= degree; d++ {
			g := rdf.NewIRI(fmt.Sprintf("http://pg/e%d_%d", i, d))
			quads = append(quads,
				rdf.Quad{S: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", i)), P: rdf.NewIRI("http://pg/r/follows"),
					O: rdf.NewIRI(fmt.Sprintf("http://pg/v%d", (i*d+d)%nodes)), G: g},
				rdf.Quad{S: g, P: rdf.NewIRI("http://pg/k/hasTag"), O: rdf.NewLiteral(fmt.Sprintf("#t%d", (i+d)%8)), G: g})
		}
	}
	if _, err := st.Load("data", quads); err != nil {
		t.Fatal(err)
	}
	return st
}

// watchdog fails the test with every goroutine's stack when done is not
// closed within 10 s: a deadlock must end the test, not the test binary.
func watchdog(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("not finished after 10s; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// TestReadersNeverWaitForWriter is the deadlock reproducer: two readers
// on a multi-pattern NG lookup — whose batch DFS scans the store again
// from inside a scan callback — one writer looping Engine.Update, and a
// poller on Store.Len. With scans under a read lock, a writer queued
// between a reader's outer and inner RLock parks reader, writer, every
// later reader and the poller for ever.
func TestReadersNeverWaitForWriter(t *testing.T) {
	st := ngLookupStore(t, 300, 6)
	e := NewEngine(st)
	const lookup = `PREFIX r: <http://pg/r/> PREFIX k: <http://pg/k/>
		SELECT ?n3 WHERE { GRAPH ?g1 { ?n r:follows ?n2 . ?g1 k:hasTag "#t%d" } ?n2 r:follows ?n3 }`

	var failed atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				res, err := e.Query("data", fmt.Sprintf(lookup, (r+i)%8))
				if err != nil || res.Len() == 0 {
					failed.Add(1)
				}
			}
		}(r)
	}
	stop := make(chan struct{})
	var others sync.WaitGroup
	others.Add(2)
	go func() { // writer
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			verb := "INSERT"
			if i%2 == 1 {
				verb = "DELETE"
			}
			quad := fmt.Sprintf(`<http://pg/w%d> <http://pg/r/follows> <http://pg/v1> .`, i/2%50)
			if _, err := e.Update("data", verb+" DATA { "+quad+" }"); err != nil {
				failed.Add(1)
			}
		}
	}()
	go func() { // poller: what /stats does
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if st.Len() == 0 {
					failed.Add(1)
				}
				runtime.Gosched()
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(stop)
		others.Wait()
		close(done)
	}()
	watchdog(t, done)
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed", n)
	}
}

// TestUpdateIsAtomicToReaders: a writer alternates INSERT DATA and
// DELETE DATA of the same three quads while readers count them and
// join them with themselves. One operation is one store version and a
// query reads one version, so a count is 0 or 3 and the join 0 or 9 —
// never a part of an operation, never two patterns from two states.
func TestUpdateIsAtomicToReaders(t *testing.T) {
	st := ngLookupStore(t, 50, 2)
	e := NewEngine(st)
	const three = `<http://pg/a1> <http://pg/k/mark> "x" . <http://pg/a2> <http://pg/k/mark> "y" . <http://pg/a3> <http://pg/k/mark> "z" .`
	queries := map[string][]int{
		`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://pg/k/mark> ?o }`:                              {0, 3},
		`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://pg/k/mark> ?o . ?s2 <http://pg/k/mark> ?o2 }`: {0, 9},
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			verb := "INSERT"
			if i%2 == 1 {
				verb = "DELETE"
			}
			if res, err := e.Update("data", verb+" DATA { "+three+" }"); err != nil || res.Inserted+res.Deleted != 3 {
				t.Errorf("%s: %+v %v", verb, res, err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for q, want := range queries {
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(q string, want []int) {
				defer readers.Done()
				for i := 0; i < 1500; i++ {
					res, err := e.Query("data", q)
					if err != nil || res.Len() != 1 {
						t.Errorf("query: %v", err)
						return
					}
					n, _ := strconv.Atoi(res.Rows[0][0].Value)
					if n != want[0] && n != want[1] {
						t.Errorf("count = %d, want %d or %d: %s", n, want[0], want[1], q)
						return
					}
				}
			}(q, want)
		}
	}
	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(stop)
		writer.Wait()
		close(done)
	}()
	watchdog(t, done)
}

// TestConcurrentQueriesShareOneEngine: four goroutines run socialShapes
// and two EXISTS shapes on one engine, so they share its cached compiled
// plans, and each answers what a lone run does. Per-query executor state
// (hash tables, BFS frontiers, sort buffers, EXISTS pipelines) carries
// no lock; under the race detector this fails if any of it lives in a
// shared plan.
func TestConcurrentQueriesShareOneEngine(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	e.hashJoinThreshold = 16
	shapes := append(socialShapes[:len(socialShapes):len(socialShapes)],
		`SELECT ?a ?c WHERE { ?a rel:follows ?b . ?b rel:follows ?c FILTER NOT EXISTS { ?c rel:follows ?a } } LIMIT 3000`,
		`SELECT ?a ?c WHERE { ?a rel:follows ?b OPTIONAL { ?b rel:follows ?c FILTER EXISTS { ?c rel:follows ?a } } }`,
	)
	want := make([]string, len(shapes))
	for i, q := range shapes {
		res, err := e.Query("", testPrologue+q)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		want[i] = res.String()
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for k := range shapes {
					i := (k + r) % len(shapes)
					res, err := e.Query("", testPrologue+shapes[i])
					if err != nil {
						t.Errorf("reader %d shape %d: %v", r, i, err)
						return
					}
					if got := res.String(); got != want[i] {
						t.Errorf("reader %d shape %d: %d bytes of results, want %d", r, i, len(got), len(want[i]))
						return
					}
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	watchdog(t, done)
}

// TestConcurrentQueriesKeepOwnScratchTerms: each query interns its
// computed terms (BIND, VALUES) into an overlay of its own, which takes
// no lock. Four goroutines run queries whose computed strings differ by
// reader, so readers that shared an overlay would see each other's
// scratch IDs (and race under the race detector); each must answer
// what a lone run does, and none may grow the store's dictionary.
func TestConcurrentQueriesKeepOwnScratchTerms(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	query := func(r int) string {
		return testPrologue + fmt.Sprintf(`SELECT ?a ?tag ?l WHERE {
			VALUES ?tag { "reader%d-x" "reader%d-y" }
			?a rel:follows ?b
			BIND(CONCAT(?tag, "/", STR(?b)) AS ?l)
		} ORDER BY ?a ?tag ?l`, r, r)
	}
	const readers = 4
	want := make([]string, readers)
	for r := range want {
		res, err := e.Query("", query(r))
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("reader %d: no rows", r)
		}
		want[r] = res.String()
	}
	// A fresh engine, so the concurrent runs intern their computed
	// terms for the first time: only then would a shared overlay be
	// written to by several readers at once.
	e = NewEngine(st)
	dictLen := st.Dict().Len()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, err := e.Query("", query(r))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if got := res.String(); got != want[r] {
					t.Errorf("reader %d round %d: results differ from a lone run", r, round)
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	watchdog(t, done)
	if got := st.Dict().Len(); got != dictLen {
		t.Errorf("read-only queries grew the dictionary: %d -> %d", dictLen, got)
	}
}
