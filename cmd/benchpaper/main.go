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
// Two other modes print EXPLAIN ANALYZE of every paper query
// (-explainanalyze) and gate what per-operator profiling costs
// (-profileoverhead). Recovery and analytics are timed by the serving
// benchmark (benchmark/, `-trace 1`), not here.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/bench"
	"repro/internal/twitter"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale relative to the paper (973 egos)")
	iters := flag.Int("iters", 3, "timed iterations per query for -profileoverhead (1 = smoke)")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	profileOverhead := flag.Bool("profileoverhead", false, "measure EQ1-EQ12 with vs without per-operator profiling and report the aggregate overhead")
	maxOverhead := flag.Float64("maxoverhead", 0, "fail when -profileoverhead exceeds this percentage (0 = report only)")
	explainAnalyze := flag.Bool("explainanalyze", false, "print EXPLAIN ANALYZE for every paper query on both schemes")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

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
