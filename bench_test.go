package repro

// One testing.B benchmark per query figure of the paper (Figures 5–9),
// plus the ablation benches DESIGN.md calls out. The paper's shape
// claims are exact-count predicates (internal/bench, BENCH_paper.json);
// these benches time the queries behind them. Run with:
//
//	go test -bench=Figure -benchmem
//
// The dataset scale defaults to 2% of the paper's (fast enough for CI);
// override with REPRO_BENCH_SCALE, e.g.
//
//	REPRO_BENCH_SCALE=0.1 go test -bench=Figure8 -benchtime=1x
//
// Query benches report ns/op for one warm execution of the query, the
// same measurement Figures 5–9 plot.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/pgrdf"
	"repro/internal/sparql"
	"repro/internal/twitter"
)

var (
	envOnce sync.Once
	envVal  *bench.Env
	envErr  error
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.02
}

func benchEnv(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = bench.Setup(twitter.PaperConfig().Scale(benchScale()))
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

// runQueryBench benchmarks one query under one scheme.
func runQueryBench(b *testing.B, se *bench.SchemeEnv, name, query string) {
	b.Helper()
	model := bench.TargetModelFor(se, name)
	// Warm once (paper methodology) and sanity-check the query.
	if _, err := se.Engine.QueryContext(b.Context(), model, query); err != nil {
		b.Fatalf("%s: %v", name, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := se.Engine.QueryContext(b.Context(), model, query); err != nil {
			b.Fatal(err)
		}
	}
}

func queryBenchPair(b *testing.B, names ...string) {
	env := benchEnv(b)
	queries := env.Queries()
	for _, name := range names {
		for _, se := range env.SchemeEnvs() {
			scheme := se.Scheme
			if (name[len(name)-1] == 'a' && len(name) == 4 && scheme != pgrdf.NG) ||
				(name[len(name)-1] == 'b' && len(name) == 4 && scheme != pgrdf.SP) {
				continue
			}
			se := se
			q := queries[name]
			b.Run(fmt.Sprintf("%s/%s", name, scheme), func(b *testing.B) {
				runQueryBench(b, se, name, q)
			})
		}
	}
}

// ---- Figures ---------------------------------------------------------

// BenchmarkFigure5 benchmarks the node-centric queries EQ1–EQ4 on both
// schemes.
func BenchmarkFigure5(b *testing.B) {
	queryBenchPair(b, "EQ1", "EQ2", "EQ3", "EQ4")
}

// BenchmarkFigure6 benchmarks the edge-centric queries EQ5–EQ8 (a = NG
// formulation, b = SP formulation).
func BenchmarkFigure6(b *testing.B) {
	queryBenchPair(b, "EQ5a", "EQ5b", "EQ6a", "EQ6b", "EQ7a", "EQ7b", "EQ8a", "EQ8b")
}

// BenchmarkFigure7 benchmarks the aggregate queries EQ9–EQ10.
func BenchmarkFigure7(b *testing.B) {
	queryBenchPair(b, "EQ9", "EQ10")
}

// BenchmarkFigure8 benchmarks the graph-traversal queries EQ11a–d.
// EQ11e (5 hops) is benchmarked separately because its cost does not
// shrink with dataset scale (per-ego density is scale-invariant).
func BenchmarkFigure8(b *testing.B) {
	queryBenchPair(b, "EQ11a", "EQ11b", "EQ11c", "EQ11d")
}

// BenchmarkFigure8EQ11e benchmarks the 5-hop path count.
func BenchmarkFigure8EQ11e(b *testing.B) {
	queryBenchPair(b, "EQ11e")
}

// BenchmarkFigure8Enumerating benchmarks EQ11a–d answered by
// enumerating: the path pattern wrapped in a SELECT * sub-select, which
// materializes every path the COUNT then counts — the plan whose time
// grows with the path count, as the paper's does. The engine's own plan
// counts without enumerating (DESIGN.md §22).
func BenchmarkFigure8Enumerating(b *testing.B) {
	env := benchEnv(b)
	for _, name := range []string{"EQ11a", "EQ11b", "EQ11c", "EQ11d"} {
		q := bench.Enumerating(env.Queries()[name])
		for _, se := range env.SchemeEnvs() {
			se := se
			b.Run(fmt.Sprintf("%s/%s", name, se.Scheme), func(b *testing.B) {
				runQueryBench(b, se, name, q)
			})
		}
	}
}

// BenchmarkFigure9 benchmarks triangle counting (EQ12).
func BenchmarkFigure9(b *testing.B) {
	queryBenchPair(b, "EQ12")
}

// ---- Ablations (DESIGN.md §4) ----------------------------------------

// BenchmarkAblationJoinStrategy compares the default executor, which
// fuses the triangle query's closing steps into a sorted intersection
// (DESIGN.md §20), against index nested loops only on that query — the
// join-strategy choice of the paper's Experiment 5.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	env := benchEnv(b)
	q := env.Queries()["EQ12"]
	model := bench.TargetModelFor(env.NG, "EQ12")
	for _, mode := range []struct {
		name        string
		nestedLoops bool
	}{{"default", false}, {"nested-loops", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			eng := sparql.NewEngine(env.NG.Store)
			eng.NestedLoopsOnly = mode.nestedLoops
			if _, err := eng.QueryContext(b.Context(), model, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryContext(b.Context(), model, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartitioning compares an edge-KV query against the
// narrow Table 4 partition target versus the whole dataset — §3.2's
// argument for partitioned storage.
func BenchmarkAblationPartitioning(b *testing.B) {
	env := benchEnv(b)
	q := env.Queries()["EQ8a"]
	for _, target := range []struct{ name, model string }{
		{"partitioned", bench.TargetModelFor(env.NG, "EQ8a")},
		{"full-dataset", env.NG.Names.All},
	} {
		target := target
		b.Run(target.name, func(b *testing.B) {
			if _, err := env.NG.Engine.QueryContext(b.Context(), target.model, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.NG.Engine.QueryContext(b.Context(), target.model, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExplicitSPO compares edge traversal on SP data with
// the explicitly asserted -s-p-o triple (query uses the plain pattern)
// versus without it (query must go through rdfs:subPropertyOf) — the §2
// Discussion design choice.
func BenchmarkAblationExplicitSPO(b *testing.B) {
	env := benchEnv(b)
	prologue := "PREFIX r: <http://pg/r/>\nPREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
	plain := prologue + `SELECT (COUNT(*) AS ?cnt) WHERE { ?x r:follows ?y . ?y r:follows ?z }`
	viaSub := prologue + `SELECT (COUNT(*) AS ?cnt) WHERE {
		?x ?e1 ?y . ?e1 rdfs:subPropertyOf r:follows .
		?y ?e2 ?z . ?e2 rdfs:subPropertyOf r:follows }`

	// Build an SP store WITHOUT the redundant -s-p-o triples.
	conv := &pgrdf.Converter{Scheme: pgrdf.SP, Vocab: bench.Vocab(), Opts: pgrdf.Options{ExplicitSPO: false}}
	ds := conv.Convert(env.Graph)
	st, err := pgrdf.NewStore(pgrdf.SP)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pgrdf.LoadPartitioned(st, ds, "pg"); err != nil {
		b.Fatal(err)
	}
	noSPO := sparql.NewEngine(st)

	b.Run("with-explicit-spo", func(b *testing.B) {
		model := env.SP.Names.Topology
		if _, err := env.SP.Engine.QueryContext(b.Context(), model, plain); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.SP.Engine.QueryContext(b.Context(), model, plain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-subPropertyOf", func(b *testing.B) {
		if _, err := noSPO.QueryContext(b.Context(), "pg", viaSub); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := noSPO.QueryContext(b.Context(), "pg", viaSub); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRF measures the reification scheme the paper drops
// after §2.3 on the Q2-style edge-KV query, against NG and SP — showing
// why: one extra join per edge access.
func BenchmarkAblationRF(b *testing.B) {
	env := benchEnv(b)
	for _, se := range env.AllSchemes() {
		se := se
		b.Run(se.Scheme.String(), func(b *testing.B) {
			model, q := se.Names.TopoEdgeKV, bench.EdgeKVQuery(se.Scheme)
			if _, err := se.Engine.QueryContext(b.Context(), model, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := se.Engine.QueryContext(b.Context(), model, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
