package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so analyzers port mechanically if the
// dependency ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// Path is the import path under analysis. It is distinct from
	// Pkg.Path() only in tests, where testdata packages can pose as a
	// repo package to exercise path-scoped analyzers.
	Path  string
	Info  *types.Info
	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf is a nil-safe Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Finding is a positioned diagnostic, resolved for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// All returns the pgrdfvet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		Ctxflow, Errsentinel, Goroutinelife, Guardedby, Guardtick,
		Idsafe, Walerr,
	}
}

// knownAnalyzerNames returns the valid targets of a pgrdfvet:ignore
// directive.
func knownAnalyzerNames() map[string]bool {
	names := map[string]bool{"all": true}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// ignoreRE matches suppression directives:
//
//	//pgrdfvet:ignore <analyzer>[,<analyzer>...] -- <justification>
//
// The directive applies to its own line and to the line directly below
// (so it can sit above a long statement). A justification is mandatory;
// a bare directive is itself reported.
var ignoreRE = regexp.MustCompile(`^//pgrdfvet:ignore\s+([a-z0-9_,\s]+?)\s*(?:--\s*(\S.*))?$`)

type ignoreKey struct {
	file string
	line int
}

// ignoreDirective is one //pgrdfvet:ignore comment. Usage is tracked
// per analyzer name so stale suppressions — directives that no longer
// mask any finding — are themselves reported.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string
	used      map[string]bool
}

// ignoreIndex holds a package's suppression directives, addressable by
// the (file, line) pairs they cover.
type ignoreIndex struct {
	byLine map[ignoreKey][]*ignoreDirective
	list   []*ignoreDirective
}

// buildIgnoreIndex scans a package's comments for directives. Malformed
// directives (no justification) and directives naming analyzers that do
// not exist are returned as findings so the gate cannot be waved
// through silently.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) (*ignoreIndex, []Finding) {
	idx := &ignoreIndex{byLine: make(map[ignoreKey][]*ignoreDirective)}
	known := knownAnalyzerNames()
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//pgrdfvet:") {
						bad = append(bad, Finding{
							Analyzer: "pgrdfvet",
							Pos:      fset.Position(c.Pos()),
							Message:  "malformed pgrdfvet directive (want //pgrdfvet:ignore <analyzer> -- <why>)",
						})
					}
					continue
				}
				if m[2] == "" {
					bad = append(bad, Finding{
						Analyzer: "pgrdfvet",
						Pos:      fset.Position(c.Pos()),
						Message:  "pgrdfvet:ignore needs a justification: `//pgrdfvet:ignore " + strings.TrimSpace(m[1]) + " -- <why>`",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{pos: pos, used: make(map[string]bool)}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					if !known[name] {
						bad = append(bad, Finding{
							Analyzer: "pgrdfvet",
							Pos:      pos,
							Message:  fmt.Sprintf("pgrdfvet:ignore names unknown analyzer %q", name),
						})
						continue
					}
					d.analyzers = append(d.analyzers, name)
				}
				if len(d.analyzers) == 0 {
					continue
				}
				idx.list = append(idx.list, d)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := ignoreKey{file: pos.Filename, line: line}
					idx.byLine[k] = append(idx.byLine[k], d)
				}
			}
		}
	}
	return idx, bad
}

// suppressed reports whether a finding at pos is masked, marking the
// matching directive as used.
func (idx *ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	hit := false
	for _, d := range idx.byLine[ignoreKey{file: pos.Filename, line: pos.Line}] {
		for _, name := range d.analyzers {
			if name == analyzer || name == "all" {
				d.used[analyzer] = true
				hit = true
			}
		}
	}
	return hit
}

// unusedFindings reports directives that suppressed nothing during a
// run. Only analyzers that actually ran are considered, so a run of one
// analyzer (a fixture test) never flags a directive for another; an
// "all" directive is checked only when the full suite ran.
func (idx *ignoreIndex) unusedFindings(active map[string]bool) []Finding {
	fullSuite := true
	for name := range knownAnalyzerNames() {
		if name != "all" && !active[name] {
			fullSuite = false
			break
		}
	}
	var out []Finding
	for _, d := range idx.list {
		for _, name := range d.analyzers {
			stale := false
			if name == "all" {
				stale = fullSuite && len(d.used) == 0
			} else {
				stale = active[name] && !d.used[name]
			}
			if stale {
				out = append(out, Finding{
					Analyzer: "pgrdfvet",
					Pos:      d.pos,
					Message:  fmt.Sprintf("unused pgrdfvet:ignore for %s: no finding on this or the next line; delete the stale suppression", name),
				})
			}
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to each package and returns the
// surviving findings sorted by position. The fset must be the one the
// packages were parsed with.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for _, pkg := range pkgs {
		idx, bad := buildIgnoreIndex(fset, pkg.Files)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Path:     pkg.ImportPath,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			for _, d := range pass.diags {
				pos := fset.Position(d.Pos)
				if idx.suppressed(a.Name, pos) {
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
		findings = append(findings, idx.unusedFindings(active)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// --- shared type helpers used by several analyzers ---

// isNamedType reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// methodCall resolves a call of the form x.Sel(...) to the method's
// receiver type and name; ok is false for anything else (including
// package-qualified function calls).
func methodCall(info *types.Info, call *ast.CallExpr) (recv types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	return selection.Recv(), sel.Sel.Name, true
}

// calleeFunc resolves a call to the *types.Func it invokes (method or
// package-level function), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// outermostFunc returns the top-level FuncDecl containing pos, or nil.
func outermostFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
