package analysis

import (
	"go/ast"
	"strings"
)

// Ctxflow enforces the context-threading discipline the query guardrails
// depend on: a query that never sees the caller's context can neither
// be canceled nor observe its deadline, so the admission/timeout story
// silently degrades to "runs forever".
//
// Inside library packages (repro/internal/...), minting a fresh context
// with context.Background or context.TODO is forbidden: library code
// receives its context from the caller. Binaries under cmd/ create the
// root context, so they are exempt. (*sparql.Engine has no context-free
// request methods, so a call that drops the caller's context must mint
// one — which is what this rule catches.)
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "library code must thread the caller's context, not mint a new one",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	if !strings.HasPrefix(pass.Path, "repro/internal/") {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
				pass.Reportf(call.Pos(),
					"library code must accept a context from its caller, not mint context.%s", fn.Name())
			}
			return true
		})
	}
	return nil
}
