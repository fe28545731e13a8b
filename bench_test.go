package repro

// One testing.B benchmark per table and figure of the paper, plus the
// ablation benches DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
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
	"strings"
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
	if _, err := se.Engine.Query(model, query); err != nil {
		b.Fatalf("%s: %v", name, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := se.Engine.Query(model, query); err != nil {
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

// ---- Tables ----------------------------------------------------------

// BenchmarkTable1 measures the Figure-1 transformation under all schemes
// (the Table 1 content generator).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := bench.Table1(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 measures cardinality prediction + measurement.
func BenchmarkTable2(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := bench.Table2(env); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable5 measures plan explanation for the Table 5 queries.
func BenchmarkTable5(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := bench.Table5(env); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable6 measures dataset generation at bench scale (the
// Table 6 input); this is the data-production cost.
func BenchmarkTable6(b *testing.B) {
	cfg := twitter.PaperConfig().Scale(benchScale())
	for i := 0; i < b.N; i++ {
		g := twitter.Generate(cfg)
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkTable7 measures the NG and SP conversions (the Table 7
// triple-count source).
func BenchmarkTable7(b *testing.B) {
	env := benchEnv(b)
	for _, scheme := range []pgrdf.Scheme{pgrdf.NG, pgrdf.SP} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			conv := &pgrdf.Converter{Scheme: scheme, Vocab: bench.Vocab(), Opts: pgrdf.DefaultOptions()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds := conv.Convert(env.Graph)
				if ds.Len() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkTable8 measures dataset statistics computation.
func BenchmarkTable8(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := bench.Table8(env); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable9 measures the storage accounting of both stores.
func BenchmarkTable9(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ng := env.NG.Store.Storage()
		sp := env.SP.Store.Storage()
		if ng.Total == 0 || sp.Total == 0 {
			b.Fatal("empty storage report")
		}
	}
}

// BenchmarkLoad measures bulk load into partitioned stores (the paper's
// "loading the quads and triples took 5m16s / 6m01s").
func BenchmarkLoad(b *testing.B) {
	env := benchEnv(b)
	for _, scheme := range []pgrdf.Scheme{pgrdf.NG, pgrdf.SP} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			conv := &pgrdf.Converter{Scheme: scheme, Vocab: bench.Vocab(), Opts: pgrdf.DefaultOptions()}
			ds := conv.Convert(env.Graph)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := pgrdf.NewStore(scheme)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pgrdf.LoadPartitioned(st, ds, "pg"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figures ---------------------------------------------------------

// BenchmarkFigure4 measures degree-distribution computation.
func BenchmarkFigure4(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, in := env.Graph.DegreeDistribution()
		if len(out) == 0 || len(in) == 0 {
			b.Fatal("empty distribution")
		}
	}
}

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
		q := env.Queries()[name]
		i := strings.Index(q, "WHERE {") + len("WHERE {")
		q = q[:i] + " { SELECT * WHERE {" + q[i:len(q)-1] + "} } }"
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

// BenchmarkDML measures the paper's deferred DML study: delete+reinsert
// round trips for sampled edges, NG vs SP.
func BenchmarkDML(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := bench.DMLExtension(env, 100)
		if len(tab.Rows) != 2 {
			b.Fatalf("DML table rows = %d", len(tab.Rows))
		}
	}
}

// BenchmarkAblationJoinStrategy compares the adaptive NLJ/hash executor
// against forced pure NLJ on the triangle query — the paper's
// Experiment 5 hinges on the optimizer choosing hash joins here.
func BenchmarkAblationJoinStrategy(b *testing.B) {
	env := benchEnv(b)
	q := env.Queries()["EQ12"]
	model := bench.TargetModelFor(env.NG, "EQ12")
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"adaptive", false}, {"nlj-only", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			eng := sparql.NewEngine(env.NG.Store)
			eng.DisableHashJoin = mode.disable
			if _, err := eng.Query(model, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(model, q); err != nil {
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
			if _, err := env.NG.Engine.Query(target.model, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.NG.Engine.Query(target.model, q); err != nil {
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
		if _, err := env.SP.Engine.Query(model, plain); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.SP.Engine.Query(model, plain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-subPropertyOf", func(b *testing.B) {
		if _, err := noSPO.Query("pg", viaSub); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := noSPO.Query("pg", viaSub); err != nil {
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
	vocab := bench.Vocab()
	conv := &pgrdf.Converter{Scheme: pgrdf.RF, Vocab: vocab, Opts: pgrdf.DefaultOptions()}
	ds := conv.Convert(env.Graph)
	st, err := pgrdf.NewStore(pgrdf.RF)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pgrdf.LoadPartitioned(st, ds, "pg"); err != nil {
		b.Fatal(err)
	}
	engines := map[string]struct {
		eng   *sparql.Engine
		model string
		query string
	}{
		"RF": {sparql.NewEngine(st), "pg", mustBuild(pgrdf.RF, vocab)},
		"NG": {env.NG.Engine, env.NG.Names.TopoEdgeKV, mustBuild(pgrdf.NG, vocab)},
		"SP": {env.SP.Engine, env.SP.Names.TopoEdgeKV, mustBuild(pgrdf.SP, vocab)},
	}
	for _, name := range []string{"RF", "NG", "SP"} {
		e := engines[name]
		b.Run(name, func(b *testing.B) {
			if _, err := e.eng.Query(e.model, e.query); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.Query(e.model, e.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustBuild(s pgrdf.Scheme, vocab pgrdf.Vocabulary) string {
	qb := &pgrdf.QueryBuilder{Scheme: s, Vocab: vocab}
	return qb.Select([]string{"x", "y", "k", "v"}, qb.EdgeKVPattern("x", "y", "e", "follows", "k", "v"))
}
