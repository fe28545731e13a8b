// Command benchpaper regenerates the paper's evaluation: every table
// (1, 2, 5–9) and figure (4–9), printed side by side with the paper's
// reported numbers.
//
// Usage:
//
//	benchpaper -scale 0.1            # all experiments at 1/10 scale
//	benchpaper -table 9              # just Table 9
//	benchpaper -fig 8 -scale 0.05    # just Figure 8, smaller
//
// Absolute numbers differ from the paper (different machine, synthetic
// data, an in-memory Go store instead of Oracle 12c); the shapes — who
// wins, by roughly what factor — are the reproduction target. See
// EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/twitter"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale relative to the paper (973 egos)")
	table := flag.String("table", "", "run a single table (1,2,5,6,7,8,9)")
	fig := flag.String("fig", "", "run a single figure (4,5,6,7,8,9)")
	seed := flag.Int64("seed", 0, "override generator seed")
	algoBench := flag.Bool("algobench", false, "run the graph-algorithm comparison (CSR projection + PageRank/WCC/triangles, serial vs parallel, all three schemes) instead of the paper tables")
	workers := flag.Int("workers", 8, "worker budget for -algobench")
	requireCores := flag.Bool("require-cores", false, "fail -algobench when GOMAXPROCS < workers instead of just warning (guards published speedup numbers)")
	iters := flag.Int("iters", 3, "timed iterations per query for -algobench and -profileoverhead (1 = smoke)")
	out := flag.String("out", "", "write the -algobench/-profileoverhead/-recoverybench JSON report to this file (default stdout)")
	profileOverhead := flag.Bool("profileoverhead", false, "measure EQ1-EQ12 with vs without per-operator profiling and report the aggregate overhead")
	maxOverhead := flag.Float64("maxoverhead", 0, "fail when -profileoverhead exceeds this percentage (0 = report only)")
	explainAnalyze := flag.Bool("explainanalyze", false, "print EXPLAIN ANALYZE for every paper query on both schemes")
	recoveryBench := flag.Bool("recoverybench", false, "measure checkpoint write/restore and log-tail replay on a ~1M-quad durability directory (BENCH_recovery.json)")
	recoveryQuads := flag.Int("recoveryquads", 1_000_000, "checkpoint size target in quads for -recoverybench")
	recoveryTail := flag.Int("recoverytail", 10_000, "log-tail records to replay for -recoverybench")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The recovery bench builds its own durability directory; the
	// NG + SP query stores below would be dead weight.
	if *recoveryBench {
		start := time.Now()
		rep, err := bench.RecoveryBench(ctx, *recoveryQuads, *recoveryTail)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "recovery bench done in %s: %d quads, binary checkpoint write %.0fms restore %.0fms (text restore %.0fms, %.1fx), %d-record tail replay %.0fms, incremental fold %.0fms (%d B delta)\n",
			time.Since(start).Round(time.Millisecond), rep.Quads,
			rep.CheckpointWriteMS, rep.CheckpointRestoreMS, rep.TextRestoreMS, rep.RestoreSpeedup,
			rep.TailRecords, rep.ReplayMS, rep.IncrCheckpointMS, rep.DeltaBytes)
		return
	}

	cfg := twitter.PaperConfig().Scale(*scale)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	fmt.Fprintf(os.Stderr, "generating dataset (%d egos) and loading NG + SP stores...\n", cfg.Egos)
	start := time.Now()
	env, err := bench.Setup(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpaper:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "setup done in %s (graph: %d nodes, %d edges; tag analogue %q on %d nodes)\n\n",
		time.Since(start).Round(time.Millisecond), env.GraphStats.Vertices, env.GraphStats.Edges, env.Tag, env.TagNodeCount)

	switch {
	case *explainAnalyze:
		txt, err := bench.ExplainAnalyzeAll(ctx, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		fmt.Print(txt)
	case *profileOverhead:
		rep, err := bench.ProfileOverhead(ctx, env, *iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "profiling overhead: %.2f%% (plain %.1fms, profiled %.1fms, best of %d)\n",
			rep.OverheadPct, rep.PlainMS, rep.ProfiledMS, rep.Iters)
		if *maxOverhead > 0 && rep.OverheadPct > *maxOverhead {
			fmt.Fprintf(os.Stderr, "benchpaper: profiling overhead %.2f%% exceeds the %.1f%% gate\n",
				rep.OverheadPct, *maxOverhead)
			os.Exit(1)
		}
	case *algoBench:
		if *workers < 2 {
			*workers = 2 // AlgoBench's own minimum
		}
		if procs := runtime.GOMAXPROCS(0); procs < *workers {
			fmt.Fprintf(os.Stderr, "benchpaper: WARNING: GOMAXPROCS=%d < workers=%d; parallel timings on this host are not speedup evidence\n",
				procs, *workers)
			if *requireCores {
				fmt.Fprintln(os.Stderr, "benchpaper: -require-cores set; refusing to write a report (rerun with -workers", procs, "or on a larger host)")
				os.Exit(1)
			}
		}
		rep, err := bench.AlgoBench(ctx, env, *workers, *iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchpaper:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (workers=%d, gomaxprocs=%d)\n", *out, rep.Workers, rep.GOMAXPROCS)
	case *table != "":
		run(ctx, env, "table"+*table)
	case *fig != "":
		run(ctx, env, "fig"+*fig)
	default:
		for _, t := range bench.AllExperiments(ctx, env) {
			fmt.Println(t.String())
		}
	}
}

func run(ctx context.Context, env *bench.Env, id string) {
	t, err := bench.Experiment(ctx, env, id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpaper:", err)
		os.Exit(1)
	}
	fmt.Println(t.String())
}
