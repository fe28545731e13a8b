package analysis

import (
	"go/ast"
	"go/types"
)

// Walerr keeps the durability and replication chains honest. The
// WAL's whole guarantee — crash at any byte, recover to the last
// durable commit — rests on the caller noticing when a journal write
// fails: an ignored (*wal.Log).Commit error means a mutation is
// applied (or reported as applied) without being on disk, which is a
// silent durability hole no test will catch until a crash. The same goes for Checkpoint (a failed snapshot must not
// be treated as a truncation point) and Sync (the shutdown flush).
//
// The replication apply/ack chain gets the same treatment: a dropped
// wal.ApplyBatch or wal.DecodeFrames error — or a discarded error
// from the follower's apply, bootstrap, tail, or conflict handlers —
// silently forks a follower from its leader with no crash to notice.
// Discarding any of these errors — an expression statement, `_ =`,
// go, or defer — is reported.
var Walerr = &Analyzer{
	Name: "walerr",
	Doc:  "errors from wal/repl durability and replication-apply calls must not be discarded",
	Run:  runWalerr,
}

// walerrMethods maps package path → receiver type → the methods whose
// error return is durability- or replication-critical. Close is
// exempt: it is routinely deferred on teardown paths where the flush
// already happened via Sync. Follower.Run is exempt too: it only
// returns the context's error and is designed to be driven by `go`.
// The repl.Follower entries are unexported, so they bind inside the
// repl package itself — exactly where the apply/ack chain lives.
var walerrMethods = map[string]map[string]map[string]bool{
	walPkg: {
		"Log": {"Commit": true, "Checkpoint": true, "CheckpointIncremental": true, "Sync": true},
	},
	replPkg: {
		"Follower": {
			"applyFrames":    true,
			"bootstrap":      true,
			"tailOnce":       true,
			"handleConflict": true,
		},
	},
}

// walerrFuncs maps package path → package-level functions under the
// same rule: these are the follower's apply path, and an unhandled
// error means the local store holds a half-applied batch.
var walerrFuncs = map[string]map[string]bool{
	walPkg: {"ApplyBatch": true, "DecodeFrames": true},
}

const (
	walPkg  = "repro/internal/wal"
	replPkg = "repro/internal/repl"
)

// walerrCall reports whether call invokes one of the guarded methods
// or functions.
func walerrCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg := fn.Pkg().Path()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if walerrFuncs[pkg][fn.Name()] {
			return fn.Name(), true
		}
		return "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	typeName := named.Obj().Name()
	if walerrMethods[pkg][typeName][fn.Name()] {
		return typeName + "." + fn.Name(), true
	}
	return "", false
}

func runWalerr(pass *Pass) error {
	report := func(call *ast.CallExpr, how string) {
		if name, ok := walerrCall(pass.Info, call); ok {
			pass.Reportf(call.Pos(),
				"%s error %s; a dropped journal error is a silent durability hole — handle it or fail the operation", name, how)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					report(call, "discarded")
				}
			case *ast.GoStmt:
				report(n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				report(n.Call, "discarded by defer")
			case *ast.AssignStmt:
				// `_ = l.Sync()` and friends: every LHS is blank.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				report(call, "assigned to _")
			}
			return true
		})
	}
	return nil
}
