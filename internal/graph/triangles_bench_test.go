package graph

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pgrdf"
	"repro/internal/twitter"
)

// twitterCSR projects the twitter generator's graph for cfg, converted
// under scheme s and loaded into one model, with the reverse adjacency
// the algorithms need.
func twitterCSR(tb testing.TB, s pgrdf.Scheme, cfg twitter.Config) *CSR {
	tb.Helper()
	st, err := pgrdf.NewStore(s)
	if err != nil {
		tb.Fatal(err)
	}
	ds := pgrdf.NewConverter(s).Convert(twitter.Generate(cfg))
	if err := pgrdf.LoadSingle(st, ds, "data"); err != nil {
		tb.Fatal(err)
	}
	cs, err := Project(context.Background(), st, ProjectOptions{Model: "data", Scheme: s, Reverse: true}, Budget{})
	if err != nil {
		tb.Fatal(err)
	}
	return cs
}

// BenchmarkTrianglesKernel times Runner.Triangles alone: on the CSR the
// serving benchmark's algo-rf workload counts — the twitter graph at
// scale 0.05 under RF (3 765 vertices, 79 678 edges, 272 001
// triangles) — at one and two workers, and at one worker on the CSR of
// the scan-sp workload's store — the twitter graph at scale 0.025
// under SP, the data of sparql's BenchmarkIntersectKernel/EQ12-SP leg
// (40 781 edges). Each leg reports its CSR's edges, and EQ12-SP its
// follows edges, so one `make bench-micro` gives both per-edge costs
// on one host.
func BenchmarkTrianglesKernel(b *testing.B) {
	rf := twitterCSR(b, pgrdf.RF, twitter.PaperConfig().Scale(0.05))
	sp := twitterCSR(b, pgrdf.SP, twitter.PaperConfig().Scale(0.025))
	for _, leg := range []struct {
		name string
		par  int
		cs   *CSR
	}{{"p1", 1, rf}, {"p2", 2, rf}, {"scan-sp", 1, sp}} {
		b.Run(leg.name, func(b *testing.B) {
			r := Runner{Parallelism: leg.par}
			var res *TrianglesResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = r.Triangles(context.Background(), leg.cs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Count), "triangles")
			b.ReportMetric(float64(leg.cs.NumEdges()), "edges")
		})
	}
}

// BenchmarkPageRankKernel times Runner.PageRank alone on
// BenchmarkTrianglesKernel's algo-rf CSR at one and two workers: p1
// over p2 is the parallel speedup on the serving benchmark's graph.
func BenchmarkPageRankKernel(b *testing.B) {
	benchmarkWorkers(b, func(r Runner, cs *CSR) error {
		_, err := r.PageRank(context.Background(), cs, PageRankOptions{})
		return err
	})
}

// BenchmarkWCCKernel is BenchmarkPageRankKernel for Runner.WCC.
func BenchmarkWCCKernel(b *testing.B) {
	benchmarkWorkers(b, func(r Runner, cs *CSR) error {
		_, err := r.WCC(context.Background(), cs)
		return err
	})
}

// benchmarkWorkers times run on the algo-rf CSR at one and two workers.
func benchmarkWorkers(b *testing.B, run func(Runner, *CSR) error) {
	rf := twitterCSR(b, pgrdf.RF, twitter.PaperConfig().Scale(0.05))
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			r := Runner{Parallelism: par}
			for i := 0; i < b.N; i++ {
				if err := run(r, rf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rf.NumEdges()), "edges")
		})
	}
}
