package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Iterclose enforces the close discipline on the store's iterator
// types. A leaked store.Cursor pins its row snapshot and permanently
// inflates the OpenCursors leak gauge, and the bug is invisible in
// small tests — exactly the failure mode the gauge exists to surface.
//
// A "resource" is any value whose type is (a pointer to) a named type
// declared in this module (import path repro/...) with a Close method.
// For every local acquisition of a resource from a call, the function
// must do one of:
//
//   - defer v.Close() (the preferred form: it covers error returns)
//   - call v.Close() with no return statement between acquisition and
//     the close — an early `return err` in that window leaks v
//   - let v escape (return it, pass it to a call, store it in a
//     struct/map/slice/channel): ownership moved, the receiver closes
//
// Discarding a resource result (assigning to _ or dropping the return
// value) is always a leak and is reported outright.
var Iterclose = &Analyzer{
	Name: "iterclose",
	Doc:  "repo iterator/cursor types must be closed on every path, including error returns",
	Run:  runIterclose,
}

// isResourceType reports whether t is (a pointer to) a module-local
// named type with Close in its method set.
func isResourceType(t types.Type) bool {
	if t == nil {
		return false
	}
	base := t
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/") {
		return false
	}
	for _, ms := range []*types.MethodSet{
		types.NewMethodSet(t),
		types.NewMethodSet(types.NewPointer(base)),
	} {
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "Close" {
				return true
			}
		}
	}
	return false
}

// resourceResults returns which results of a call are resource types.
func resourceResults(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.IsType() {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		return []types.Type{tv.Type}
	}
}

type acquisition struct {
	obj  types.Object // the variable holding the resource
	pos  token.Pos    // where it was acquired
	expr ast.Expr     // the acquiring call, for reporting
}

func runIterclose(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncResources(pass, fd.Body)
		}
	}
	return nil
}

// checkFuncResources analyzes one function body. Nested function
// literals are analyzed as part of their enclosing function: a close
// or escape anywhere in the subtree counts, but return statements in
// nested literals do not count against the early-return rule.
func checkFuncResources(pass *Pass, body *ast.BlockStmt) {
	var acqs []acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			results := resourceResults(pass.Info, call)
			for i, lhs := range n.Lhs {
				if i >= len(results) || !isResourceType(results[i]) {
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue // stored into a field/index: escapes
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "%s result discarded; it must be closed", typeLabel(results[i]))
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil {
					acqs = append(acqs, acquisition{obj: obj, pos: call.Pos(), expr: call})
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				for _, rt := range resourceResults(pass.Info, call) {
					if isResourceType(rt) {
						pass.Reportf(call.Pos(), "%s result discarded; it must be closed", typeLabel(rt))
					}
				}
			}
		}
		return true
	})
	for _, a := range acqs {
		checkAcquisition(pass, body, a)
	}
}

func typeLabel(t types.Type) string {
	s := t.String()
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		prefix := ""
		if strings.HasPrefix(s, "*") {
			prefix = "*"
		}
		s = prefix + s[i+1:]
	}
	return s
}

// checkAcquisition decides the fate of one acquired resource variable.
func checkAcquisition(pass *Pass, body *ast.BlockStmt, a acquisition) {
	var (
		deferred  bool
		closePos  = token.NoPos
		escapes   bool
		parents   []ast.Node
		returnsIn []token.Pos // returns of THIS function, not nested literals
	)
	litDepthAt := func() int {
		d := 0
		for _, p := range parents {
			if _, ok := p.(*ast.FuncLit); ok {
				d++
			}
		}
		return d
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && litDepthAt() == 0 {
			returnsIn = append(returnsIn, ret.Pos())
		}
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == a.obj {
			classifyUse(pass, parents, id, &deferred, &closePos, &escapes)
		}
		parents = append(parents, n)
		for _, c := range childNodes(n) {
			walk(c)
		}
		parents = parents[:len(parents)-1]
	}
	walk(body)
	if escapes || deferred {
		return
	}
	label := typeLabel(a.obj.Type())
	if closePos == token.NoPos {
		pass.Reportf(a.pos, "%s %q is never closed; defer %s.Close() after acquiring it", label, a.obj.Name(), a.obj.Name())
		return
	}
	for _, rp := range returnsIn {
		if a.pos < rp && rp < closePos {
			pass.Reportf(a.pos, "%s %q may leak: a return between acquisition and Close skips the close — use defer %s.Close()", label, a.obj.Name(), a.obj.Name())
			return
		}
	}
}

// classifyUse inspects one use of the tracked variable given the stack
// of ancestor nodes (innermost last).
func classifyUse(pass *Pass, parents []ast.Node, id *ast.Ident, deferred *bool, closePos *token.Pos, escapes *bool) {
	if len(parents) == 0 {
		return
	}
	parent := parents[len(parents)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return
		}
		// v.Close() — deferred if any ancestor is a defer statement,
		// which also covers defer func() { v.Close() }().
		if len(parents) >= 2 {
			if call, ok := parents[len(parents)-2].(*ast.CallExpr); ok && call.Fun == p && p.Sel.Name == "Close" {
				for i := len(parents) - 2; i >= 0; i-- {
					if _, isDefer := parents[i].(*ast.DeferStmt); isDefer {
						*deferred = true
						return
					}
				}
				if *closePos == token.NoPos || call.Pos() < *closePos {
					*closePos = call.Pos()
				}
				return
			}
		}
		// v.Next(), v.Len(), field reads: plain use, not an escape.
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == ast.Expr(id) {
				*escapes = true // ownership handed to the callee
				return
			}
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		*escapes = true
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			*escapes = true
		}
	case *ast.AssignStmt:
		for _, rhs := range p.Rhs {
			if rhs == ast.Expr(id) {
				*escapes = true // aliased into another variable or field
				return
			}
		}
	case *ast.IndexExpr:
		if p.Index == ast.Expr(id) || p.X == ast.Expr(id) {
			return
		}
	}
}

// childNodes returns the direct AST children of n, preserving order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
