package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Goroutinelife requires every `go` statement in non-test code to be
// tied to a join mechanism visible in the enclosing function. A
// goroutine nobody can wait for or cancel outlives shutdown, leaks
// under error paths, and races teardown — the WAL checkpointer and
// sync loop, the index-build and snapshot-decode workers, and the
// server's listener all carry explicit lifetimes, and this analyzer
// keeps it that way.
//
// Accepted evidence, checked in order:
//
//   - the spawned call receives a context.Context argument (the callee
//     owns its cancellation);
//   - the goroutine body calls Done on a sync.WaitGroup and the
//     enclosing function calls Add or Wait on one (counter join);
//   - the body watches a cancellation signal: ctx.Done()/ctx.Err(), or
//     a receive from a chan struct{} (stop channel or worker-slot
//     semaphore release);
//   - a channel handshake: the body sends on or closes a channel that
//     the enclosing function receives from (result/err/done channels).
//
// For `go x.method()` the analyzer inspects the same-package callee's
// body. Example programs under repro/examples/ are exempt — they run
// to process exit.
var Goroutinelife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "every go statement must have a visible join: WaitGroup, context, stop channel, or channel handshake",
	Run:  runGoroutinelife,
}

func runGoroutinelife(pass *Pass) error {
	if strings.HasPrefix(pass.Path, "repro/examples/") {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, file, g, decls)
			return true
		})
	}
	return nil
}

func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	return decls
}

func checkGoStmt(pass *Pass, file *ast.File, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) {
	enclosing := outermostFunc(file, g.Pos())
	if hasContextArg(pass, g.Call) {
		return
	}

	body := goroutineBody(pass, g.Call, decls)
	if body != nil {
		bodyDone := hasWaitGroupCall(pass.Info, body, "Done")
		enclosingJoin := enclosing != nil &&
			hasWaitGroupCallOutside(pass.Info, enclosing.Body, g, "Add", "Wait")
		if bodyDone && enclosingJoin {
			return
		}
		if hasCtxCancelWatch(pass.Info, body) || hasStructChanRecv(pass.Info, body) {
			return
		}
		if enclosing != nil && channelHandshake(pass.Info, body, enclosing.Body, g) {
			return
		}
	}

	pass.Reportf(g.Pos(),
		"goroutine has no visible join mechanism (WaitGroup counter, context.Context, stop channel, or channel handshake with the spawner); tie its lifetime to one")
}

// goroutineBody resolves the AST body the goroutine will run: the
// funclit's body, or the same-package callee's declaration body.
func goroutineBody(pass *Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		return fl.Body
	}
	if fn := calleeFunc(pass.Info, call); fn != nil {
		if fd, ok := decls[fn]; ok && fd.Body != nil {
			return fd.Body
		}
	}
	return nil
}

func hasContextArg(pass *Pass, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if t := pass.Info.TypeOf(a); t != nil && isNamedType(t, "context", "Context") {
			return true
		}
	}
	return false
}

// hasWaitGroupCall reports whether n contains a call to one of the
// named methods on a sync.WaitGroup.
func hasWaitGroupCall(info *types.Info, n ast.Node, names ...string) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := methodCall(info, call)
		if !ok || !isNamedType(recv, "sync", "WaitGroup") {
			return true
		}
		for _, want := range names {
			if method == want {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasWaitGroupCallOutside is hasWaitGroupCall over the enclosing body
// with the go statement's own subtree excluded.
func hasWaitGroupCallOutside(info *types.Info, body *ast.BlockStmt, skip *ast.GoStmt, names ...string) bool {
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		if node == skip {
			return false
		}
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := methodCall(info, call)
		if !ok || !isNamedType(recv, "sync", "WaitGroup") {
			return true
		}
		for _, want := range names {
			if method == want {
				found = true
			}
		}
		return true
	})
	return found
}

// hasCtxCancelWatch reports whether n calls Done or Err on a
// context.Context — the body observes cancellation.
func hasCtxCancelWatch(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := methodCall(info, call)
		if !ok || !isNamedType(recv, "context", "Context") {
			return true
		}
		if method == "Done" || method == "Err" {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasStructChanRecv reports whether n receives from a chan struct{}:
// the stop-channel / semaphore-slot idiom.
func hasStructChanRecv(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && isStructChan(info.TypeOf(node.X)) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if isStructChan(info.TypeOf(node.X)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isStructChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// channelHandshake reports whether the goroutine body sends on or
// closes a channel that the enclosing function (outside the go
// statement) receives from.
func channelHandshake(info *types.Info, body ast.Node, enclosing *ast.BlockStmt, skip *ast.GoStmt) bool {
	writes := chanWriteKeys(info, body)
	if len(writes) == 0 {
		return false
	}
	reads := chanReadKeysOutside(info, enclosing, skip)
	for k := range writes {
		if reads[k] {
			return true
		}
	}
	return false
}

// chanWriteKeys collects ExprString keys of channels n sends on or
// closes.
func chanWriteKeys(info *types.Info, n ast.Node) map[string]bool {
	keys := make(map[string]bool)
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.SendStmt:
			keys[types.ExprString(node.Chan)] = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "close" && len(node.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					keys[types.ExprString(node.Args[0])] = true
				}
			}
		}
		return true
	})
	return keys
}

// chanReadKeysOutside collects ExprString keys of channels the
// enclosing body receives from or ranges over, excluding the go
// statement's subtree.
func chanReadKeysOutside(info *types.Info, body *ast.BlockStmt, skip *ast.GoStmt) map[string]bool {
	keys := make(map[string]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		if node == skip {
			return false
		}
		switch node := node.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				keys[types.ExprString(node.X)] = true
			}
		case *ast.RangeStmt:
			if isChan(info.TypeOf(node.X)) {
				keys[types.ExprString(node.X)] = true
			}
		}
		return true
	})
	return keys
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
