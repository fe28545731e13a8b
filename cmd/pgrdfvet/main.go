// Command pgrdfvet is the repository's static-analysis gate: it runs
// every analyzer of the internal/analysis suite (ctxflow, errsentinel,
// goroutinelife, guardedby, guardtick, idsafe, walerr) over the
// packages named on the command line, ./... when none are.
//
// Usage:
//
//	go run ./cmd/pgrdfvet ./...
//	go run ./cmd/pgrdfvet ./internal/wal ./internal/repl
//
// It prints one line per finding (file:line:col: [analyzer] message)
// and exits 1 if anything is found, 2 on operational errors. Findings
// can be suppressed line-by-line with a justified directive:
//
//	//pgrdfvet:ignore <analyzer> -- <why this is safe>
//
// The directive covers its own line and the line below; a directive
// without a justification, naming an unknown analyzer, or no longer
// masking any finding is itself a finding.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	loader := analysis.NewLoader(cwd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fail(err)
	}
	findings, err := analysis.RunAnalyzers(loader.Fset, pkgs, analysis.All())
	if err != nil {
		fail(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pgrdfvet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pgrdfvet: %v\n", err)
	os.Exit(2)
}
