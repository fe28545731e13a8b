package sparql

import (
	"strconv"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// Microbenchmark kernels of the BGP driver's hot loops — raw pattern
// scan, index nested-loop rescan, filter evaluation —
// of the nested shapes that run an inner pipeline per outer row
// (OPTIONAL, MINUS), and of the aggregate tail: grouping by one and two
// key columns, a UNION of two scans. Run via `make bench-micro`.
//
// The scan/join/filter kernels are COUNT queries, so the measured work
// is operator execution, not result materialization.

// benchStore is built once and shared across kernels: a random
// follows-graph big enough that scans span many batches.
var benchStore *store.Store

func kernelStore(b *testing.B) *store.Store {
	if benchStore == nil {
		benchStore = egoNetStore(b, 2000, 8) // 16k quads
	}
	return benchStore
}

// ngStore is the paper-shaped NG store of the nested kernels: the
// twitter.TestConfig() graph (≈42k quads, 1 152 knows edges).
var ngStore *store.Store

func nestedKernelStore(b *testing.B) *store.Store {
	if ngStore == nil {
		ds := pgrdf.NewConverter(pgrdf.NG).Convert(twitter.Generate(twitter.TestConfig()))
		st, err := pgrdf.NewStore(pgrdf.NG)
		if err != nil {
			b.Fatal(err)
		}
		if err := pgrdf.LoadSingle(st, ds, "ng"); err != nil {
			b.Fatal(err)
		}
		ngStore = st
	}
	return ngStore
}

func runKernel(b *testing.B, st *store.Store, q string, tune func(*Engine)) {
	e := NewEngine(st)
	if tune != nil {
		tune(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryContext(b.Context(), "", testPrologue+q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanKernel: single-pattern scan, the tightest loop — every
// quad flows through quadVisible + bind + emit.
func BenchmarkScanKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b }`, nil)
}

// BenchmarkNestedLoopKernel: a two-hop join on index nested loops only
// — measures the batched bound-pattern rescan path.
func BenchmarkNestedLoopKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		func(e *Engine) { e.NestedLoopsOnly = true })
}

// scanSPStore is the `scan-sp` serving store: the SP encoding of
// twitter.PaperConfig().Scale(0.025) (37 615 follows edges) under SP's
// pgrdf.RecommendedIndexes, the set `pgrdf serve -data` builds for it.
var scanSPStore *store.Store

func spKernelStore(b *testing.B) *store.Store {
	if scanSPStore == nil {
		ds := pgrdf.NewConverter(pgrdf.SP).Convert(twitter.Generate(twitter.PaperConfig().Scale(0.025)))
		st, err := pgrdf.NewStore(pgrdf.SP)
		if err != nil {
			b.Fatal(err)
		}
		if err := pgrdf.LoadSingle(st, ds, "data"); err != nil {
			b.Fatal(err)
		}
		scanSPStore = st
	}
	return scanSPStore
}

// hubBenchStore is hubStore(3000, 4): a hub every node follows and that
// follows every node.
var hubBenchStore *store.Store

// eq12SPTriangles is EQ12's answer on the `scan-sp` store.
const eq12SPTriangles = 89613

// BenchmarkIntersectKernel: the triangle count, whose last two steps
// fuse into a sorted intersection — seeks, marking, walks and leapfrog
// summing their matches (nothing reads ?c) instead of scanning a range
// per two-path. The legs: the random follows graph; EQ12 on `scan-sp`'s
// SP store, whose binder range repeats for every in-edge of a node
// (walks); the same count grouped by ?z, whose group must emit per value
// of ?z; and a hub graph, whose rows that check the hub's in-edges
// against a few out-edges must gallop. Each leg checks its count once
// before timing: EQ12 against its known answer, the others against
// triangles counted over an adjacency map. EQ12-SP reports the follows
// edges it counts over, for the per-edge cost next to graph's
// BenchmarkTrianglesKernel/scan-sp.
func BenchmarkIntersectKernel(b *testing.B) {
	const triangles = `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`
	const eq12 = `SELECT (COUNT(*) AS ?cnt) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?x }`
	b.Run("random", func(b *testing.B) {
		st := kernelStore(b)
		checkCount(b, st, triangles, adjacencyTriangles(st))
		runKernel(b, st, triangles, nil)
	})
	b.Run("EQ12-SP", func(b *testing.B) {
		checkCount(b, spKernelStore(b), eq12, eq12SPTriangles)
		runKernel(b, spKernelStore(b), eq12, nil)
		b.ReportMetric(float64(followsEdges(spKernelStore(b))), "edges")
	})
	b.Run("EQ12-SP-by-z", func(b *testing.B) {
		q := `SELECT ?z (COUNT(*) AS ?cnt) WHERE { ?x r:follows ?y . ?y r:follows ?z . ?z r:follows ?x } GROUP BY ?z`
		checkCount(b, spKernelStore(b), q, eq12SPTriangles)
		runKernel(b, spKernelStore(b), q, nil)
	})
	b.Run("hub", func(b *testing.B) {
		if hubBenchStore == nil {
			hubBenchStore = hubStore(b, 3000, 4, false)
		}
		checkCount(b, hubBenchStore, triangles, adjacencyTriangles(hubBenchStore))
		runKernel(b, hubBenchStore, triangles, nil)
	})
}

// spFourCycles is the 4-cycle count on the `scan-sp` store.
const spFourCycles = 2610360

// BenchmarkFourCycleKernel: the directed 4-cycle count on `scan-sp`'s SP
// store. Its fused group closes the cycle: it binds ?d from ?c, which
// changes on every input row, and checks ?d against in(?a), which
// repeats for every row of one ?a — the shape whose marks belong on the
// checker (DESIGN.md §20). The count is checked once before timing.
func BenchmarkFourCycleKernel(b *testing.B) {
	const q = `SELECT (COUNT(*) AS ?n) WHERE { ?a r:follows ?b . ?b r:follows ?c . ?c r:follows ?d . ?d r:follows ?a }`
	checkCount(b, spKernelStore(b), q, spFourCycles)
	runKernel(b, spKernelStore(b), q, nil)
}

// checkCount fails b unless q's counts, summed over its rows, are want.
func checkCount(b *testing.B, st *store.Store, q string, want int64) {
	b.Helper()
	res, err := NewEngine(st).QueryContext(b.Context(), "", testPrologue+q)
	if err != nil {
		b.Fatal(err)
	}
	var got int64
	for _, row := range res.Rows {
		n, err := strconv.ParseInt(row[len(row)-1].Value, 10, 64)
		if err != nil {
			b.Fatal(err)
		}
		got += n
	}
	if got != want {
		b.Fatalf("%s: counted %d, want %d", q, got, want)
	}
}

// followsEdges counts st's follows rows.
func followsEdges(st *store.Store) int {
	p := store.AnyPattern()
	p.P = st.Dict().Lookup(rdf.NewIRI(rdf.RelNS + "follows"))
	n := 0
	st.View().Scan(p, func(store.IDQuad) bool {
		n++
		return true
	})
	return n
}

// adjacencyTriangles counts the follows triangles (a, b, c) of st —
// ordered, one per combination of rows — over an adjacency map.
func adjacencyTriangles(st *store.Store) int64 {
	p := store.AnyPattern()
	p.P = st.Dict().Lookup(rdf.NewIRI(rdf.RelNS + "follows"))
	out := map[store.ID]map[store.ID]int64{}
	st.View().Scan(p, func(q store.IDQuad) bool {
		if out[q.S] == nil {
			out[q.S] = map[store.ID]int64{}
		}
		out[q.S][q.C]++
		return true
	})
	var n int64
	for a, bs := range out {
		for b, ab := range bs {
			for c, bc := range out[b] {
				n += ab * bc * out[c][a]
			}
		}
	}
	return n
}

// BenchmarkFilterKernel: scan plus a cheap predicate — measures the
// selection-vector compaction.
func BenchmarkFilterKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . FILTER(?a != ?b) }`, nil)
}

// BenchmarkOptionalKernel: an OPTIONAL whose two-pattern inner BGP runs
// once per outer row (1 152 knows edges in, 1 211 rows out) — the cost
// of starting a nested BGP per row.
func BenchmarkOptionalKernel(b *testing.B) {
	runKernel(b, nestedKernelStore(b),
		`SELECT ?a ?b ?t WHERE { ?a r:knows ?b OPTIONAL { ?b k:hasTag ?t . ?a k:hasTag ?t } }`, nil)
}

// BenchmarkMinusKernel: the MINUS counterpart (838 rows survive).
func BenchmarkMinusKernel(b *testing.B) {
	runKernel(b, nestedKernelStore(b),
		`SELECT ?a ?b WHERE { ?a r:knows ?b MINUS { ?b k:hasTag ?t . ?a k:hasTag ?t } }`, nil)
}

// groupStore has ~40 000 follows rows over 1 400 nodes: grouping them
// by object makes about 1 400 groups.
var groupStore *store.Store

// BenchmarkGroupKernel: COUNT per group over 40 000 scanned rows, keyed
// by one column (an ID key) and by two (a term key).
func BenchmarkGroupKernel(b *testing.B) {
	if groupStore == nil {
		groupStore = egoNetStore(b, 1400, 29)
	}
	b.Run("keys=1", func(b *testing.B) {
		runKernel(b, groupStore, `SELECT ?b (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b } GROUP BY ?b`, nil)
	})
	b.Run("keys=2", func(b *testing.B) {
		runKernel(b, groupStore, `SELECT ?b ?p (COUNT(*) AS ?n) WHERE { ?a ?p ?b } GROUP BY ?b ?p`, nil)
	})
}

// BenchmarkUnionKernel: an alternation path, a UNION of two
// single-pattern scans (16 000 rows each), counted.
func BenchmarkUnionKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a (rel:follows|^rel:follows) ?b }`, nil)
}
