// Command benchpaper checks the paper's evaluation: every shape claim
// of EXPERIMENTS.md, as a predicate over exact counts (internal/bench,
// claims.go), written with the values it read as one JSON report. It
// exits 1 when a claim fails.
//
// Usage:
//
//	benchpaper -out BENCH_paper.json         # every claim at 1/10 scale
//	benchpaper -scale 0.02 -out claims.json  # smaller
//
// The other modes (-explainanalyze, -profileoverhead, -algobench,
// -recoverybench) measure what only a timing can show.
package main

import (
	"bytes"
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
	algoBench := flag.Bool("algobench", false, "run the graph-algorithm comparison (CSR projection + PageRank/WCC/triangles, serial vs parallel, all three schemes) instead of the paper claims")
	workers := flag.Int("workers", 8, "worker budget for -algobench")
	requireCores := flag.Bool("require-cores", false, "fail -algobench when GOMAXPROCS < workers instead of just warning (guards published speedup numbers)")
	iters := flag.Int("iters", 3, "timed iterations per query for -algobench and -profileoverhead (1 = smoke)")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	profileOverhead := flag.Bool("profileoverhead", false, "measure EQ1-EQ12 with vs without per-operator profiling and report the aggregate overhead")
	maxOverhead := flag.Float64("maxoverhead", 0, "fail when -profileoverhead exceeds this percentage (0 = report only)")
	explainAnalyze := flag.Bool("explainanalyze", false, "print EXPLAIN ANALYZE for every paper query on both schemes")
	recoveryBench := flag.Bool("recoverybench", false, "measure checkpoint write/restore, log-tail replay and a follower bootstrap on a ~1M-quad durability directory (BENCH_recovery.json)")
	recoveryQuads := flag.Int("recoveryquads", 1_000_000, "checkpoint size target in quads for -recoverybench")
	recoveryTail := flag.Int("recoverytail", 10_000, "log-tail records to replay for -recoverybench")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The recovery bench builds its own durability directory; the
	// stores Setup loads would be dead weight.
	if *recoveryBench {
		start := time.Now()
		rep, err := bench.RecoveryBench(ctx, *recoveryQuads, *recoveryTail)
		check(err)
		writeJSON(*out, rep)
		fmt.Fprintf(os.Stderr, "recovery bench done in %s: %d quads, checkpoint write %.0fms restore %.0fms, %d-record tail replay %.0fms, incremental fold %.0fms (%d B delta), follower bootstrap %.0fms\n",
			time.Since(start).Round(time.Millisecond), rep.Quads,
			rep.CheckpointWriteMS, rep.CheckpointRestoreMS,
			rep.TailRecords, rep.ReplayMS, rep.IncrCheckpointMS, rep.DeltaBytes, rep.BootstrapMS)
		return
	}

	cfg := twitter.PaperConfig().Scale(*scale)
	fmt.Fprintf(os.Stderr, "generating dataset (%d egos) and loading RF, NG and SP stores...\n", cfg.Egos)
	start := time.Now()
	env, err := bench.Setup(cfg)
	check(err)
	fmt.Fprintf(os.Stderr, "setup done in %s (graph: %d nodes, %d edges; tag analogue %q on %d nodes)\n\n",
		time.Since(start).Round(time.Millisecond), env.GraphStats.Vertices, env.GraphStats.Edges, env.Tag, env.TagNodeCount)

	switch {
	case *explainAnalyze:
		txt, err := bench.ExplainAnalyzeAll(ctx, env)
		check(err)
		fmt.Print(txt)
	case *profileOverhead:
		rep, err := bench.ProfileOverhead(ctx, env, *iters)
		check(err)
		writeJSON(*out, rep)
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
		check(err)
		writeJSON(*out, rep)
		fmt.Fprintf(os.Stderr, "algo bench done (workers=%d, gomaxprocs=%d)\n", rep.Workers, rep.GOMAXPROCS)
	default:
		rep := bench.PaperClaims(ctx, env)
		writeJSON(*out, rep)
		failed := 0
		for _, c := range rep.Claims {
			if !c.Holds {
				failed++
				fmt.Fprintf(os.Stderr, "benchpaper: claim %s (%s) fails: %s\n", c.Name, c.Row, c.Failure)
			}
		}
		fmt.Fprintf(os.Stderr, "%d of %d claims hold\n", len(rep.Claims)-failed, len(rep.Claims))
		if failed > 0 {
			os.Exit(1)
		}
	}
}

// writeJSON writes v as indented JSON to path (stdout when empty).
func writeJSON(path string, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // claims and plan patterns hold < and >
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	if err == nil && path == "" {
		_, err = os.Stdout.Write(buf.Bytes())
	} else if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	check(err)
}

// check exits 1 on a non-nil error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpaper:", err)
		os.Exit(1)
	}
}
