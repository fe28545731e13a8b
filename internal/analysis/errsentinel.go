package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Errsentinel bans identity comparison of error values. A *guard.Error,
// the error the SPARQL engine and the graph runtime both return, wraps
// its sentinel kind (guard.ErrTimeout, ErrBudgetExceeded, ErrCanceled,
// ErrInternal) behind Unwrap, so `err == guard.ErrTimeout` is false
// exactly when it matters; the same applies to io.EOF once a reader is
// wrapped. errors.Is is the only comparison that survives
// wrapping, and the difference between the two is invisible in tests
// until a caller adds one fmt.Errorf("%w") frame.
var Errsentinel = &Analyzer{
	Name: "errsentinel",
	Doc:  "compare errors with errors.Is/errors.As, never == or != (nil checks excepted)",
	Run:  runErrsentinel,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorExpr reports whether e is a non-nil expression of a type that
// is (or implements) error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	t := tv.Type
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
}

func runErrsentinel(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isErrorExpr(pass.Info, n.X) && isErrorExpr(pass.Info, n.Y) {
					pass.Reportf(n.Pos(),
						"error compared with %s; use errors.Is so the check survives wrapping", n.Op)
				}
			case *ast.SwitchStmt:
				if n.Tag == nil || !isErrorExpr(pass.Info, n.Tag) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if isErrorExpr(pass.Info, e) {
							pass.Reportf(e.Pos(),
								"switch on an error value compares with ==; use errors.Is in if/else chains")
							return true
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
