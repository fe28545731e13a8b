package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/pgrdf"
	"repro/internal/sparql"
)

// parallelBenchQueries are the paper queries the morsel-driven executor
// targets: the multi-hop joins and path/triangle aggregates of Tables
// 5–9 whose driving scans are large enough to fan out.
var parallelBenchQueries = []string{"EQ3", "EQ7a", "EQ11d", "EQ12"}

// ParallelQueryResult is one query's serial-vs-parallel comparison:
// the serial executor (serial_ms, Parallelism 1) against the
// morsel-driven parallel one (parallel_ms). Both run the batch BGP
// driver; reports recorded before it became the only BGP driver
// measured the deleted row-at-a-time executor as serial_ms.
//
// Rows is the serial executor's count and ParallelRows the parallel
// executor's; ParallelBench fails if they disagree, so a published
// report is itself evidence the executors agreed. A zero count is not
// a measurement bug: EQ3 and EQ7a are 4-hop chain SELECTs whose
// same-tag join finds no matches at small synthetic scales, while the
// scans and joins being timed still do their full work.
type ParallelQueryResult struct {
	Name         string  `json:"name"`
	Scheme       string  `json:"scheme"`
	Model        string  `json:"model"`
	Rows         int     `json:"rows"`
	ParallelRows int     `json:"parallel_rows"`
	SerialMS     float64 `json:"serial_ms"`
	ParallelMS   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

// ParallelLoadResult compares serial vs parallel bulk-load time for the
// NG dataset (all partitions, all configured indexes).
type ParallelLoadResult struct {
	Quads      int     `json:"quads"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// ParallelReport is the payload of BENCH_parallel.json.
type ParallelReport struct {
	Workers    int                   `json:"workers"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Iters      int                   `json:"iters"`
	Queries    []ParallelQueryResult `json:"queries"`
	BulkLoad   ParallelLoadResult    `json:"bulk_load"`
}

// ParallelBench measures the paper's scan-heavy queries under the
// serial executor and the morsel-driven executor with the given worker
// budget, plus bulk-load throughput with serial vs parallel index
// builds. Each query is warmed once, then timed iters times; the median
// is reported. Parallel speedups are bounded by the machine: on a
// single-core host the parallel executor can only match the serial one
// (GOMAXPROCS is recorded in the report for that reason).
func ParallelBench(ctx context.Context, env *Env, workers, iters int) (*ParallelReport, error) {
	if workers < 2 {
		workers = 2
	}
	if iters < 1 {
		iters = 1
	}
	rep := &ParallelReport{Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0), Iters: iters}
	se := env.NG
	serial := sparql.NewEngine(se.Store)
	serial.Parallelism = 1
	par := sparql.NewEngine(se.Store)
	par.Parallelism = workers
	queries := env.Queries()
	for _, name := range parallelBenchQueries {
		q, ok := queries[name]
		if !ok {
			return nil, fmt.Errorf("parallelbench: unknown paper query %q", name)
		}
		model := TargetModelFor(se, name)
		res, err := serial.QueryContext(ctx, model, q) // warm-up + row count
		if err != nil {
			return nil, fmt.Errorf("parallelbench %s (serial): %w", name, err)
		}
		pres, err := par.QueryContext(ctx, model, q) // warm-up + row count
		if err != nil {
			return nil, fmt.Errorf("parallelbench %s (parallel): %w", name, err)
		}
		if resultCount(pres) != resultCount(res) {
			// A timing report over divergent results would be
			// meaningless — and would hide a correctness bug.
			return nil, fmt.Errorf("parallelbench %s: serial/parallel executors returned %d/%d rows",
				name, resultCount(res), resultCount(pres))
		}
		sMed, err := medianRun(ctx, serial, model, q, iters)
		if err != nil {
			return nil, fmt.Errorf("parallelbench %s (serial): %w", name, err)
		}
		pMed, err := medianRun(ctx, par, model, q, iters)
		if err != nil {
			return nil, fmt.Errorf("parallelbench %s (parallel): %w", name, err)
		}
		rep.Queries = append(rep.Queries, ParallelQueryResult{
			Name:         name,
			Scheme:       se.Scheme.String(),
			Model:        model,
			Rows:         resultCount(res),
			ParallelRows: resultCount(pres),
			SerialMS:     ms(sMed),
			ParallelMS:   ms(pMed),
			Speedup:      speedup(sMed, pMed),
		})
	}
	load, err := parallelLoadBench(env, workers, iters)
	if err != nil {
		return nil, err
	}
	rep.BulkLoad = *load
	return rep, nil
}

// parallelLoadBench times loading the NG dataset into a fresh store
// with serial vs parallel index builds.
func parallelLoadBench(env *Env, workers, iters int) (*ParallelLoadResult, error) {
	ds := env.NG.Dataset
	quads := len(ds.Topology) + len(ds.NodeKV) + len(ds.EdgeKV)
	timeLoad := func(par int) (time.Duration, error) {
		best := time.Duration(0)
		for i := 0; i < iters; i++ {
			st, err := pgrdf.NewStore(pgrdf.NG)
			if err != nil {
				return 0, err
			}
			st.SetParallelism(par)
			start := time.Now()
			if _, err := pgrdf.LoadPartitioned(st, ds, "blbench"); err != nil {
				return 0, err
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	sDur, err := timeLoad(1)
	if err != nil {
		return nil, fmt.Errorf("parallelbench bulk load (serial): %w", err)
	}
	pDur, err := timeLoad(workers)
	if err != nil {
		return nil, fmt.Errorf("parallelbench bulk load (parallel): %w", err)
	}
	return &ParallelLoadResult{
		Quads:      quads,
		SerialMS:   ms(sDur),
		ParallelMS: ms(pDur),
		Speedup:    speedup(sDur, pDur),
	}, nil
}

// ParallelDifferential runs every paper query under the serial and the
// morsel-driven parallel executor on all three schemes (NG, SP, and the
// lazily loaded RF ablation) and fails on the first result mismatch —
// the acceptance check that parallel execution, profiled or not, is
// byte-identical to the serial plans. TestEngineMatchesReference checks
// the serial answers themselves against a naive evaluator.
func ParallelDifferential(ctx context.Context, env *Env, workers int) error {
	if workers < 2 {
		workers = 8
	}
	queries := env.Queries()
	rf, err := env.RFEnv()
	if err != nil {
		return fmt.Errorf("differential: loading RF scheme: %w", err)
	}
	for _, se := range append(env.SchemeEnvs(), rf) {
		serial := sparql.NewEngine(se.Store)
		serial.Parallelism = 1
		par := sparql.NewEngine(se.Store)
		par.Parallelism = workers
		// Lower the hash-join threshold so the lazy switch (and thus the
		// partitioned build) engages even at test scale.
		serial.HashJoinThreshold = 16
		par.HashJoinThreshold = 16
		for _, name := range sortedKeys(queries) {
			model := TargetModelFor(se, name)
			want, err := serial.QueryContext(ctx, model, queries[name])
			if err != nil {
				return fmt.Errorf("differential %s/%s (serial): %w", se.Scheme, name, err)
			}
			got, err := par.QueryContext(ctx, model, queries[name])
			if err != nil {
				return fmt.Errorf("differential %s/%s (parallel): %w", se.Scheme, name, err)
			}
			if got.String() != want.String() {
				return fmt.Errorf("differential %s/%s: parallel result differs from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
					se.Scheme, name, want, got)
			}
			// Parallel execution with per-operator profiling on must
			// stay byte-identical too (the instrumentation layer may not
			// perturb morsel merge order), and the profile must actually
			// carry the plan.
			pres, prof, err := par.QueryProfiledContext(ctx, model, queries[name])
			if err != nil {
				return fmt.Errorf("differential %s/%s (profiled): %w", se.Scheme, name, err)
			}
			if pres.String() != want.String() {
				return fmt.Errorf("differential %s/%s: profiled parallel result differs from serial", se.Scheme, name)
			}
			if prof == nil || len(prof.Plan) == 0 {
				return fmt.Errorf("differential %s/%s: profiled run returned an empty profile", se.Scheme, name)
			}
		}
		if n := par.ParallelStats().ActiveWorkers; n != 0 {
			return fmt.Errorf("differential %s: %d worker goroutines leaked", se.Scheme, n)
		}
		if n := se.Store.OpenCursors(); n != 0 {
			return fmt.Errorf("differential %s: %d cursors leaked", se.Scheme, n)
		}
	}
	return nil
}

// medianRun times iters runs and reports the median. Each run starts
// from a collected heap (like testing.B between runs): the parallel
// hash build's partial tables otherwise accumulate as floating garbage
// across iterations, and the background collector's marking competes
// with the measured query — the later iterations would be charged for
// the earlier ones' garbage.
func medianRun(ctx context.Context, e *sparql.Engine, model, query string, iters int) (time.Duration, error) {
	durs := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := e.QueryContext(ctx, model, query); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func speedup(serial, parallel time.Duration) float64 {
	if parallel <= 0 {
		return 0
	}
	return float64(serial) / float64(parallel)
}
