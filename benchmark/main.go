// Command benchmark is the repository's serving benchmark: it builds
// cmd/pgrdf, starts a separate `pgrdf serve` process, drives it over
// HTTP with one of four fixed-work workloads, checks every answer and
// prints every metric by name with its unit. See README.md.
//
//	go run -C benchmark repro/benchmark -workload lookup-ng -seed 1 -seconds 15 -trace 0
//	go run -C benchmark repro/benchmark -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded at the start of every run, so a number can
// be traced back to the machine state that produced it.
type environment struct {
	NProc           int    `json:"nproc"`
	HarnessMaxProcs int    `json:"harness_gomaxprocs"`
	ServerMaxProcs  int    `json:"server_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Kernel          string `json:"kernel"`
	LoadAvg1        string `json:"loadavg_1min"`
	Clients         int    `json:"clients"`
	RequestsPerPass int    `json:"requests_per_pass"`
	TimedPasses     int    `json:"timed_passes"`
	ColdStarts      int    `json:"cold_starts"`
	LoopKind        string `json:"loop"`
	ServerFlags     string `json:"server_flags"`
	Dataset         string `json:"dataset"`
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func currentEnvironment(cfg runConfig) environment {
	cfg = cfg.withDefaults()
	flags := "-data <file>"
	if cfg.workload.Durable {
		flags = "-data-dir <dir> -fsync always"
	}
	return environment{
		NProc:           runtime.NumCPU(),
		HarnessMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		Kernel:          readTrim("/proc/sys/kernel/osrelease"),
		LoadAvg1:        strings.SplitN(readTrim("/proc/loadavg"), " ", 2)[0],
		Clients:         cfg.workload.Clients,
		RequestsPerPass: cfg.requests,
		TimedPasses:     cfg.passes,
		ColdStarts:      cfg.starts,
		LoopKind:        "closed",
		ServerFlags:     flags,
		Dataset:         fmt.Sprintf("twitter.PaperConfig().Scale(%g) as %s", cfg.scale, cfg.workload.Scheme),
	}
}

// repoRoot is the parent of the benchmark's own directory, which `go
// run -C benchmark` makes the working directory.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "smoke_test.go")); err != nil {
		return "", fmt.Errorf("run from the benchmark directory (go run -C benchmark repro/benchmark): %w", err)
	}
	return filepath.Dir(wd), nil
}

// buildServer compiles cmd/pgrdf from the checkout into out/.
func buildServer(root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "pgrdf")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pgrdf")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pgrdf: %v\n%s", err, out)
	}
	return bin, nil
}

type printedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit, the run summary
// (which claims nothing), and last the driver's one-line result.
func report(cfg runConfig, env environment, res *runResult) {
	specs, vals := endToEndSpecs, res.EndToEnd
	if cfg.trace {
		specs, vals = perLayerSpecs(), res.PerLayer
	}
	metrics := map[string]printedMetric{}
	for _, s := range specs {
		fmt.Printf("%-40s %16.6g %s\n", s.Name, vals[s.Name], s.Unit)
		metrics[s.Name] = printedMetric{vals[s.Name], s.Unit}
	}
	summary, _ := json.MarshalIndent(struct {
		Environment environment `json:"environment"`
		*runResult
		Claim any `json:"claim"`
	}{env, res, nil}, "", "  ")
	fmt.Println(string(summary))
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics})
	fmt.Println(string(line))
}

func mainErr() error {
	name := flag.String("workload", "", "lookup-ng, scan-sp, mixed-rw-ng or algo-rf")
	seed := flag.Int64("seed", 1, "seed of the request lists")
	seconds := flag.Int("seconds", nominalSecs, "nominal measuring time: list lengths scale with it")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two sets")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	bin, err := buildServer(root, outDir)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *selfcheck {
		return selfCheck(ctx, bin, outDir, *seed, *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, bin: bin, outDir: outDir}
	env := currentEnvironment(cfg)
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	env.ServerMaxProcs = res.serverMaxProcs
	report(cfg, env, res)
	return nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
