package sparql

import (
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/store"
	"repro/internal/twitter"
)

// Microbenchmark kernels of the BGP driver's hot loops — raw pattern
// scan, hash-table probe, index nested-loop rescan, filter evaluation —
// and of the nested shapes that run an inner pipeline per outer row
// (OPTIONAL, MINUS). Run via `make bench-micro`.
//
// The scan/probe/filter kernels are COUNT queries, so the measured work
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
	e.Parallelism = 1
	if tune != nil {
		tune(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query("", testPrologue+q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanKernel: single-pattern scan, the tightest loop — every
// quad flows through quadVisible + bind + emit.
func BenchmarkScanKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b }`, nil)
}

// BenchmarkHashProbeKernel: two-hop join with the hash build forced on
// early, so the inner loop is hash probes rather than index scans.
func BenchmarkHashProbeKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		func(e *Engine) { e.HashJoinThreshold = 16 })
}

// BenchmarkNestedLoopKernel: the same two-hop join with hash joins
// disabled — measures the batched bound-pattern rescan path.
func BenchmarkNestedLoopKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c }`,
		func(e *Engine) { e.DisableHashJoin = true })
}

// BenchmarkIntersectKernel: the triangle count, whose last two steps
// fuse into a sorted intersection — seeks, leapfrog and run counting
// instead of two-paths into a hash probe.
func BenchmarkIntersectKernel(b *testing.B) {
	runKernel(b, kernelStore(b), `SELECT (COUNT(*) AS ?n) WHERE { ?a rel:follows ?b . ?b rel:follows ?c . ?c rel:follows ?a }`, nil)
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
