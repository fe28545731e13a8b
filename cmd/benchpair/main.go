// Command benchpair runs the serving benchmark alternately against two
// source trees and reports, per end-to-end metric, each side's median
// and quartiles and how many pairs the new tree won — the paired
// comparison benchmark/README.md prescribes for claiming a gain. It is
// what `make bench-pair REF=<commit> WORKLOAD=<name>` runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// result is the one-line summary the benchmark prints last.
type result struct {
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// declared is the part of BENCHMARK.json the comparison needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func run(tree, workload string, seed int) (result, error) {
	var r result
	cmd := exec.Command("go", "run", "-C", filepath.Join(tree, "benchmark"), "repro/benchmark",
		"-workload", workload, "-seed", fmt.Sprint(seed), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("%s: %w", tree, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s: last line is not the result: %w", tree, err)
	}
	return r, nil
}

// quartiles returns the 25th, 50th and 75th percentiles (linear
// interpolation) of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func main() {
	ref := flag.String("ref", "", "source tree of the reference commit")
	cur := flag.String("new", ".", "source tree of the change")
	workload := flag.String("workload", "", "benchmark workload")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seed := flag.Int("seed", 1, "workload seed")
	flag.Parse()
	if *ref == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchpair -ref <tree> [-new <tree>] -workload <name> [-pairs 10] [-seed 1]")
		os.Exit(2)
	}
	var decl declared
	if raw, err := os.ReadFile(filepath.Join(*cur, "BENCHMARK.json")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	} else if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintln(os.Stderr, "BENCHMARK.json:", err)
		os.Exit(1)
	}

	sides := [2]string{*ref, *cur}
	values := map[string]*[2][]float64{}
	failed := [2]int{}
	for i := 0; i < *pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side runs first
			r, err := run(sides[side], *workload, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			failed[side] += r.Failed
			if !r.Correct {
				failed[side]++
			}
			for name, m := range r.Metrics {
				if values[name] == nil {
					values[name] = new([2][]float64)
				}
				values[name][side] = append(values[name][side], m.Value)
			}
			fmt.Printf("pair %d %s: p50_ms %.3f throughput_rps %.1f setup_s %.3f\n",
				i+1, [2]string{"ref", "new"}[side], r.Metrics["p50_ms"].Value, r.Metrics["throughput_rps"].Value, r.Metrics["setup_s"].Value)
		}
	}

	fmt.Printf("\n%s seed %d, %d pairs; failed operations: ref %d, new %d\n", *workload, *seed, *pairs, failed[0], failed[1])
	fmt.Printf("%-26s %31s %31s %8s %6s  %s\n", "metric", "ref median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
	for _, m := range decl.EndToEnd {
		v := values[m.Name]
		if v == nil {
			continue
		}
		rq1, rmed, rq3 := quartiles(v[0])
		nq1, nmed, nq3 := quartiles(v[1])
		sign := 1.0 // positive gain = new is better
		if m.Better == "lower" {
			sign = -1
		}
		wins, losses := 0, 0
		for i := range v[0] {
			switch d := sign * (v[1][i] - v[0][i]); {
			case d > 0:
				wins++
			case d < 0:
				losses++
			}
		}
		gain := sign * (nmed - rmed)
		verdict := "within bound"
		switch {
		case float64(wins) >= 0.9*float64(*pairs) && gain > rq3-rq1:
			verdict = "gain"
		case -gain > m.Bound*rmed:
			verdict = "REGRESSION"
		case rq3-rq1 > m.Bound*rmed:
			verdict = "unresolved (spread wider than bound)"
		}
		fmt.Printf("%-26s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %+7.1f%% %3d/%-2d  %s\n",
			m.Name, rmed, rq1, rq3, nmed, nq1, nq3, 100*(nmed-rmed)/rmed, wins, wins+losses, verdict)
	}
}
