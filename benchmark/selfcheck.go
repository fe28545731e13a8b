package main

// -selfcheck: does the benchmark repeat? Every workload runs twice,
// back to back, and each end-to-end metric of the second run must lie
// within half its bound of the first — setup_s within its whole bound:
// it is a minimum of three samples where the others are taken over
// thousands of requests, and two runs' cold starts differed by 19 % here.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// minPass is the shortest acceptable timed pass at -seconds 15; below
// it one scheduling hiccup is a visible share of the pass.
const minPass = 3 * time.Second

func selfCheck(ctx context.Context, bin, outDir string, seed int64, seconds int) error {
	bad := 0
	for _, w := range workloads {
		var runs [2]*runResult
		for i := range runs {
			cfg := runConfig{workload: w, seed: seed, seconds: seconds, bin: bin, outDir: outDir}
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %v", w.Name, res.Problems)
			}
			runs[i] = res
			shortest := slices.Min(res.PassSecs)
			fmt.Printf("%-12s run %d harness.pass_spread_pct %6.2f %%  shortest pass %.2f s\n",
				w.Name, i+1, spreadPct(res.PassSecs), shortest)
			if floor := minPass.Seconds() * float64(seconds) / nominalSecs; shortest < floor {
				need := int(math.Ceil(float64(w.Requests) * floor / shortest))
				fmt.Printf("%-12s pass shorter than %.1f s at current speed: raise Requests of %s in spec.go from %d to %d\n",
					w.Name, floor, w.Name, w.Requests, need)
				bad++
			}
		}
		for _, m := range endToEndSpecs {
			a, b := runs[0].EndToEnd[m.Name], runs[1].EndToEnd[m.Name]
			diff := math.Abs(a-b) / math.Min(a, b)
			limit := m.Bound / 2
			if m.Name == "setup_s" {
				limit = m.Bound
			}
			verdict := "ok"
			if diff > limit {
				verdict = fmt.Sprintf("DIFFERS by more than %.3f", limit)
				bad++
			}
			fmt.Printf("%-12s %-26s %14.6g %14.6g %-4s diff %6.2f %%  %s\n", w.Name, m.Name, a, b, m.Unit, 100*diff, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d problems", bad)
	}
	fmt.Println(`selfcheck passed; "claim": null`)
	return nil
}
