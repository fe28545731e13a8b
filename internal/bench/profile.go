package bench

// Profiling-overhead differential (DESIGN.md §11): runs EQ1–EQ12 on
// both schemes with profiling off and on and reports the aggregate
// slowdown, gating the promise that the instrumented executor is cheap
// enough to leave on in production paths like the slow-query log.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/sparql"
)

// OverheadResult is one query's with/without-profiling comparison.
type OverheadResult struct {
	Name       string  `json:"name"`
	Scheme     string  `json:"scheme"`
	PlainMS    float64 `json:"plain_ms"`
	ProfiledMS float64 `json:"profiled_ms"`
}

// OverheadReport is the payload of BENCH_profile_overhead.json.
type OverheadReport struct {
	Iters   int              `json:"iters"`
	Queries []OverheadResult `json:"queries"`
	// PlainMS / ProfiledMS are total best-of-iters time across all
	// queries and schemes; OverheadPct the aggregate slowdown.
	PlainMS     float64 `json:"plain_ms"`
	ProfiledMS  float64 `json:"profiled_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// ProfileOverhead times every paper query with and without profiling
// and reports the aggregate overhead. Samples for the two legs are
// interleaved in alternating order and each leg takes its best of
// iters runs: the long traversal queries are allocation-heavy enough
// that GC pacing drifts across a run, and interleaving keeps that
// drift from being billed to whichever leg happens to run second.
func ProfileOverhead(ctx context.Context, env *Env, iters int) (*OverheadReport, error) {
	if iters < 1 {
		iters = 1
	}
	rep := &OverheadReport{Iters: iters}
	queries := env.Queries()
	for _, se := range env.SchemeEnvs() {
		eng := sparql.NewEngine(se.Store)
		for _, name := range sortedKeys(queries) {
			model := TargetModelFor(se, name)
			q := queries[name]
			// Warm both paths: first runs pay plan-compilation and
			// cache-fault costs that are not the profiler's.
			if _, err := eng.QueryContext(ctx, model, q); err != nil {
				return nil, fmt.Errorf("overhead %s/%s: %w", se.Scheme, name, err)
			}
			if _, _, err := eng.QueryProfiledContext(ctx, model, q); err != nil {
				return nil, fmt.Errorf("overhead %s/%s (profiled): %w", se.Scheme, name, err)
			}
			plain, profiled, err := interleavedBestOf(iters,
				func() error {
					_, err := eng.QueryContext(ctx, model, q)
					return err
				},
				func() error {
					_, _, err := eng.QueryProfiledContext(ctx, model, q)
					return err
				})
			if err != nil {
				return nil, fmt.Errorf("overhead %s/%s: %w", se.Scheme, name, err)
			}
			rep.Queries = append(rep.Queries, OverheadResult{
				Name:       name,
				Scheme:     se.Scheme.String(),
				PlainMS:    ms(plain),
				ProfiledMS: ms(profiled),
			})
			rep.PlainMS += ms(plain)
			rep.ProfiledMS += ms(profiled)
		}
	}
	if rep.PlainMS > 0 {
		rep.OverheadPct = (rep.ProfiledMS - rep.PlainMS) / rep.PlainMS * 100
	}
	return rep, nil
}

// interleavedBestOf times a and b iters times each, alternating which
// runs first within an iteration, and returns each side's minimum. A
// GC settle before each iteration keeps one side from paying for the
// other's garbage.
func interleavedBestOf(iters int, a, b func() error) (bestA, bestB time.Duration, err error) {
	for i := 0; i < iters; i++ {
		runtime.GC()
		legs := [2]struct {
			run  func() error
			best *time.Duration
		}{{a, &bestA}, {b, &bestB}}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		for _, leg := range legs {
			start := time.Now()
			if err := leg.run(); err != nil {
				return 0, 0, err
			}
			if d := time.Since(start); *leg.best == 0 || d < *leg.best {
				*leg.best = d
			}
		}
	}
	return bestA, bestB, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// ExplainAnalyzeAll renders EXPLAIN ANALYZE for every paper query on
// every scheme, verifying that each profile reports actuals. Used by
// the benchpaper -explainanalyze mode and the acceptance tests.
func ExplainAnalyzeAll(ctx context.Context, env *Env) (string, error) {
	var sb strings.Builder
	queries := env.Queries()
	for _, se := range env.SchemeEnvs() {
		eng := sparql.NewEngine(se.Store)
		for _, name := range sortedKeys(queries) {
			model := TargetModelFor(se, name)
			_, prof, err := eng.QueryProfiledContext(ctx, model, queries[name])
			if err != nil {
				return "", fmt.Errorf("explain analyze %s/%s: %w", se.Scheme, name, err)
			}
			txt := prof.Render()
			if !strings.Contains(txt, "(actual:") {
				return "", fmt.Errorf("explain analyze %s/%s: no actuals in output:\n%s", se.Scheme, name, txt)
			}
			fmt.Fprintf(&sb, "=== %s / %s ===\n%s\n", se.Scheme, name, txt)
		}
	}
	return sb.String(), nil
}
