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

// BenchmarkTrianglesKernel times Runner.Triangles alone on the CSR the
// serving benchmark's algo-rf workload counts: the twitter graph at
// scale 0.05 under RF (3 765 vertices, 79 678 edges, 272 001
// triangles), at one and two workers. Run via `make bench-micro`.
func BenchmarkTrianglesKernel(b *testing.B) {
	cs := twitterCSR(b, pgrdf.RF, twitter.PaperConfig().Scale(0.05))
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			r := Runner{Parallelism: par}
			var res *TrianglesResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = r.Triangles(context.Background(), cs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Count), "triangles")
		})
	}
}
