// Command pgrdfvet is the repository's static-analysis gate: a
// multichecker running the internal/analysis suite (atomiconly,
// ctxflow, errsentinel, goroutinelife, guardedby, guardtick, idsafe,
// walerr) over the packages named on the command line.
//
// Usage:
//
//	go run ./cmd/pgrdfvet ./...
//	go run ./cmd/pgrdfvet -enable idsafe,ctxflow ./internal/sparql
//	go run ./cmd/pgrdfvet -disable guardedby ./internal/wal
//	go run ./cmd/pgrdfvet -json ./... > pgrdfvet.json
//
// It prints one line per finding (file:line:col: [analyzer] message)
// and exits 1 if anything is found, 2 on operational errors. With
// -json it instead emits a machine-readable report on stdout (the
// summary line still goes to stderr, and the exit codes are the same).
// Findings can be suppressed line-by-line with a justified directive:
//
//	//pgrdfvet:ignore <analyzer> -- <why this is safe>
//
// The directive covers its own line and the line below; a directive
// without a justification, naming an unknown analyzer, or no longer
// masking any finding is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

// jsonReport is the -json output shape, consumed by the CI artifact
// upload.
type jsonReport struct {
	Analyzers []string      `json:"analyzers"`
	Packages  int           `json:"packages"`
	Findings  []jsonFinding `json:"findings"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	enable := flag.String("enable", "", "comma-separated subset of analyzers to run (default: all)")
	only := flag.String("only", "", "alias for -enable (kept for compatibility)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pgrdfvet [-enable a,b] [-disable c] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	byName := make(map[string]*analysis.Analyzer)
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	resolve := func(csv, flagName string) []*analysis.Analyzer {
		var out []*analysis.Analyzer
		for _, name := range strings.Split(csv, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "pgrdfvet: -%s: unknown analyzer %q\n", flagName, strings.TrimSpace(name))
				os.Exit(2)
			}
			out = append(out, a)
		}
		return out
	}
	if *enable != "" && *only != "" {
		fmt.Fprintf(os.Stderr, "pgrdfvet: -enable and -only are aliases; use one\n")
		os.Exit(2)
	}
	if *only != "" {
		enable = only
	}
	if *enable != "" {
		analyzers = resolve(*enable, "enable")
	}
	if *disable != "" {
		skip := make(map[string]bool)
		for _, a := range resolve(*disable, "disable") {
			skip[a.Name] = true
		}
		kept := analyzers[:0]
		for _, a := range analyzers {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		fmt.Fprintf(os.Stderr, "pgrdfvet: no analyzers left after -enable/-disable\n")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgrdfvet: %v\n", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(cwd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgrdfvet: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(loader.Fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgrdfvet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		report := jsonReport{Packages: len(pkgs), Findings: []jsonFinding{}}
		for _, a := range analyzers {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "pgrdfvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pgrdfvet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}
