package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the harness must honour.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs every workload end to end — real server process,
// checked answers, traced layers — on a tiny dataset with one
// 50-request pass, and asserts that every metric BENCHMARK.json names is
// emitted, with the unit it names, and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want benchmarkJSON
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(want.Workloads), len(workloads))
	}
	if len(want.EndToEnd) != len(endToEndSpecs) || len(want.PerLayer) != len(perLayerSpecs()) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, the harness %d + %d",
			len(want.EndToEnd), len(want.PerLayer), len(endToEndSpecs), len(perLayerSpecs()))
	}
	for i, m := range endToEndSpecs {
		if w := want.EndToEnd[i]; w.Name != m.Name || w.Unit != m.Unit || w.Better != m.Better || w.Bound != m.Bound {
			t.Errorf("end_to_end[%d] is %+v in BENCHMARK.json, %+v in the harness", i, w, m)
		}
	}
	for i, m := range perLayerSpecs() {
		if w := want.PerLayer[i]; w.Name != m.Name || w.Unit != m.Unit || w.Better != m.Better {
			t.Errorf("per_layer[%d] is %+v in BENCHMARK.json, %+v in the harness", i, w, m)
		}
	}

	outDir := t.TempDir()
	bin, err := buildServer("..", outDir)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i, w := range workloads {
		if want.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, want.Workloads[i].Name, w.Name)
		}
		res, err := runWorkload(context.Background(), runConfig{workload: w, seed: 7, seconds: nominalSecs, trace: true,
			bin: bin, outDir: outDir, scale: 0.005, requests: 50, passes: 1, starts: 1, prepared: 300})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 50 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.Name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		for _, m := range want.EndToEnd {
			if v, ok := res.EndToEnd[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, emitted %v", w.Name, m.Name, v, ok)
			}
		}
		if len(res.EndToEnd) != len(want.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", w.Name, len(res.EndToEnd), len(want.EndToEnd))
		}
		for _, m := range want.PerLayer {
			if _, ok := res.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.Name, m.Name)
			}
		}
		if len(res.PerLayer) != len(want.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, want %d", w.Name, len(res.PerLayer), len(want.PerLayer))
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %s, budget 15s", d)
	}
	left, _ := filepath.Glob(filepath.Join(outDir, "run-*"))
	if len(left) > 0 {
		t.Errorf("temp dirs left behind: %v", left)
	}
}
