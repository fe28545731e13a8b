package analysis

import (
	"go/ast"
	"go/types"
)

// Guardtick keeps the budget guard wired to every row source inside
// the query engine. The PR-1 guardrails only work because scans are
// the chokepoint: each row produced ticks the guard, which is how a
// runaway query notices cancellation, deadline expiry, and budget
// exhaustion. A new operator that scans the store directly — without
// ticking — reopens the exact hole the guard closed: rows flow with
// no cancellation point and MaxWork stops counting them.
//
// Rule, scoped to repro/internal/sparql: any call to a raw store row
// source — Scan / ScanBatch / ScanIndex on a pinned *store.View, the
// *store.Store.Scan shorthand for the current one, or
// (*store.Seeker).Seek — must sit in a top-level function that also
// consults the shared *guard.Guard (a call to its TickN, Poll or
// CheckRows somewhere in the same function, typically inside the scan
// callback). Routing through
// (*execCtx).scan satisfies this by construction and is the preferred
// fix. The batched sources pair naturally with TickN: the vectorized
// executor accumulates a pending count over a batch's rows and settles
// it with one TickN per emitted batch (DESIGN.md §15), which is
// budget-equivalent to per-row ticking.
//
// The same rule patrols repro/internal/graph, which ticks the same
// guard. There the row sources are the view scans the projection and
// the patcher drain plus the CSR adjacency accessors (Neighbors /
// InNeighbors and their weight twins) — the algorithm hot loops. An
// algorithm phase that walks adjacency without ticking would run a full
// iteration blind to cancellation, deadlines and MaxWork; the morsel
// runner only polls between morsels, so the per-morsel edge work must
// settle through TickN inside the same top-level function.
var Guardtick = &Analyzer{
	Name: "guardtick",
	Doc:  "store scans and CSR hot loops must tick the budget guard",
	Run:  runGuardtick,
}

// rawScanMethods are the store row sources that bypass (*execCtx).scan.
// Seek is the sorted intersection join's source: the loop that
// leapfrogs over seeked rows settles them with tickN like a ScanBatch
// loop.
var rawScanMethods = map[string]map[string]bool{
	"Store":  {"Scan": true},
	"View":   {"Scan": true, "ScanBatch": true, "ScanIndex": true},
	"Seeker": {"Seek": true},
}

// csrRowMethods are internal/graph's hot-loop row sources: every CSR
// adjacency read inside an algorithm phase stands in for a store scan.
var csrRowMethods = map[string]bool{
	"Neighbors": true, "NeighborWeights": true,
	"InNeighbors": true, "InNeighborWeights": true,
}

const (
	graphPkg = "repro/internal/graph"
	guardPkg = "repro/internal/guard"
)

// guardMethods are the *guard.Guard calls that count as "the guard is
// consulted". TickN(n) accounts for n rows at once, so a worker loop
// that batches its ticks is as guarded as one that ticks per row.
var guardMethods = map[string]bool{"TickN": true, "Poll": true, "CheckRows": true}

func runGuardtick(pass *Pass) error {
	if pass.Path != sparqlPkg && pass.Path != graphPkg {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := methodCall(pass.Info, call)
			if !ok || !isRawScan(pass.Path, recv, name) {
				return true
			}
			fd := outermostFunc(file, call.Pos())
			if fd == nil || !ticksGuard(pass, fd) {
				pass.Reportf(call.Pos(),
					"store scan without a budget-guard tick; route it through (*execCtx).scan or tick the guard per row")
			}
			return true
		})
	}
	return nil
}

func isRawScan(path string, recv types.Type, name string) bool {
	for typeName, methods := range rawScanMethods {
		if methods[name] && isNamedType(recv, storePkg, typeName) {
			return true
		}
	}
	// Only internal/graph's own hot loops must tick on adjacency reads;
	// consumers elsewhere (tests, reporting) read CSR rows freely.
	return path == graphPkg && csrRowMethods[name] && isNamedType(recv, graphPkg, "CSR")
}

// ticksGuard reports whether fd contains a call to one of the guard
// methods on *guard.Guard, anywhere in its body (including nested
// function literals such as scan callbacks).
func ticksGuard(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := methodCall(pass.Info, call)
		found = ok && guardMethods[name] && isNamedType(recv, guardPkg, "Guard")
		return !found
	})
	return found
}
