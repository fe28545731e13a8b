package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Guardedby enforces Abseil/Java-style thread-safety contracts declared
// in source: a struct field annotated
//
//	//pgrdf:guardedby mu
//
// (where mu is a sibling sync.Mutex or sync.RWMutex field) may only be
// read or written while that lock is held. "Held" is established
// lexically, per function, with branch-aware merging: a read must sit
// between mu.Lock()/mu.RLock() and the matching Unlock (a deferred
// unlock holds to the end of the function); a write additionally
// requires the write lock (RLock does not suffice under an RWMutex).
//
// Helper methods that are documented to run with the lock already held
// declare it instead of re-acquiring:
//
//	//pgrdf:locks mu        // the receiver's mu is held on entry
//	//pgrdf:locks hs.mu     // parameter hs's mu is held on entry
//
// Inside an annotated function the named lock is treated as
// write-held; in exchange, every caller is checked — the call must
// itself occur with the lock held (or inside another annotated
// function on the same lock). This is exactly the repo's *Locked
// naming convention, machine-checked.
//
// Two deliberate holes keep the check lexical and tractable:
//
//   - A local variable freshly built from a composite literal (or
//     new(T) / a zero-valued var) in the same function is exclusively
//     owned and exempt — constructors initialize fields and call
//     *Locked helpers before the value escapes.
//   - A function literal inherits the lock state of its definition
//     point (scan callbacks run inside the call), except a `go`
//     funclit body, which starts with no locks held — a goroutine
//     never inherits its spawner's critical section.
//
// Violations that are safe for a publication-order reason (e.g. a
// field read behind an atomic "built" flag) carry a justified
// //pgrdfvet:ignore guardedby directive.
var Guardedby = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated //pgrdf:guardedby must be accessed only with the named lock held",
	Run:  runGuardedby,
}

// gbAnnotationRE matches well-formed annotations; gbPrefixRE catches
// malformed ones so a typo cannot silently disable a contract.
var (
	gbAnnotationRE = regexp.MustCompile(`^//pgrdf:(guardedby|locks)\s+([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)\s*$`)
	gbPrefixRE     = regexp.MustCompile(`^//pgrdf:(guardedby|locks)(\s|$)`)
)

// guardInfo is one field's contract: the sibling lock field guarding it.
type guardInfo struct {
	lock  string // sibling field name of the mutex
	owner string // struct type name, for messages
}

// locksReq is one //pgrdf:locks declaration on a function: the lock
// field of the receiver (param == -1) or of the param at that index is
// held on entry.
type locksReq struct {
	param     int    // flattened parameter index; -1 = receiver
	paramName string // for the entry-state key
	lock      string
}

type gbFacts struct {
	guarded map[*types.Var]guardInfo
	locks   map[*types.Func][]locksReq
}

// Lock-hold modes, ordered so "stronger" compares greater.
const (
	gbNotHeld = iota
	gbReadHeld
	gbWriteHeld
)

// gbState maps a lock key — ExprString(base)+"."+lockField — to its
// hold mode at the current program point.
type gbState map[string]int

func (s gbState) clone() gbState {
	m := make(gbState, len(s))
	for k, v := range s {
		m[k] = v
	}
	return m
}

// gbMerge intersects the states of converging control-flow paths: a
// lock counts as held after a branch only if every surviving path
// holds it, at the weakest mode any of them holds.
func gbMerge(states []gbState) gbState {
	if len(states) == 0 {
		return gbState{}
	}
	out := states[0].clone()
	for _, s := range states[1:] {
		for k, v := range out {
			sv, ok := s[k]
			if !ok || sv == gbNotHeld {
				delete(out, k)
			} else if sv < v {
				out[k] = sv
			}
		}
	}
	return out
}

func runGuardedby(pass *Pass) error {
	facts := collectGuardedbyFacts(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &gbChecker{pass: pass, facts: facts, fresh: make(map[types.Object]bool)}
			c.stmts(fd.Body.List, c.entryState(fd))
		}
	}
	return nil
}

// entryState seeds the lock state from the function's //pgrdf:locks
// annotations: each declared lock is treated as write-held.
func (c *gbChecker) entryState(fd *ast.FuncDecl) gbState {
	st := gbState{}
	fn, _ := c.pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return st
	}
	for _, req := range c.facts.locks[fn] {
		name := req.paramName
		if req.param < 0 {
			name = receiverName(fd)
		}
		if name == "" || name == "_" {
			continue
		}
		st[name+"."+req.lock] = gbWriteHeld
	}
	return st
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// --- fact collection -------------------------------------------------

func collectGuardedbyFacts(pass *Pass) *gbFacts {
	facts := &gbFacts{
		guarded: make(map[*types.Var]guardInfo),
		locks:   make(map[*types.Func][]locksReq),
	}
	for _, file := range pass.Files {
		// Malformed //pgrdf: annotations are findings: a typo must not
		// silently drop a thread-safety contract.
		for _, cg := range file.Comments {
			for _, cmt := range cg.List {
				if gbPrefixRE.MatchString(cmt.Text) && gbAnnotationRE.FindStringSubmatch(cmt.Text) == nil {
					pass.Reportf(cmt.Pos(),
						"malformed pgrdf annotation (want //pgrdf:guardedby <mutexField> or //pgrdf:locks [<param>.]<mutexField>)")
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				collectStructAnnotations(pass, st, facts)
			}
			return true
		})
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				collectLocksAnnotations(pass, fd, facts)
			}
		}
	}
	return facts
}

// fieldAnnotation returns the //pgrdf:guardedby lock name attached to a
// struct field (doc comment above it or line comment beside it).
func fieldAnnotation(f *ast.Field) (lock string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			m := gbAnnotationRE.FindStringSubmatch(cmt.Text)
			if m != nil && m[1] == "guardedby" {
				return m[2], cmt.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

func collectStructAnnotations(pass *Pass, st *ast.StructType, facts *gbFacts) {
	for _, f := range st.Fields.List {
		lock, _, ok := fieldAnnotation(f)
		if !ok {
			continue
		}
		if strings.Contains(lock, ".") {
			pass.Reportf(f.Pos(), "//pgrdf:guardedby %s: a field's guard must be a sibling field, not a path", lock)
			continue
		}
		owner := "struct"
		if len(f.Names) > 0 {
			if obj, isVar := pass.Info.Defs[f.Names[0]].(*types.Var); isVar {
				if named := namedOwner(pass, st, obj); named != "" {
					owner = named
				}
			}
		}
		if !structHasMutexField(pass, st, lock) {
			pass.Reportf(f.Pos(), "//pgrdf:guardedby %s: %s has no mutex field %q (want a sibling sync.Mutex or sync.RWMutex)", lock, owner, lock)
			continue
		}
		for _, name := range f.Names {
			if obj, isVar := pass.Info.Defs[name].(*types.Var); isVar {
				facts.guarded[obj] = guardInfo{lock: lock, owner: owner}
			}
		}
	}
}

// namedOwner best-effort recovers the declared struct type's name for
// messages by asking the field's parent scope; "" when anonymous.
func namedOwner(pass *Pass, st *ast.StructType, field *types.Var) string {
	// The field's owning struct is the one we are iterating; find a
	// TypeSpec whose type is st by position.
	for ident, obj := range pass.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.Type() == nil {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			if s, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < s.NumFields(); i++ {
					if s.Field(i) == field {
						return ident.Name
					}
				}
			}
		}
	}
	return ""
}

// structHasMutexField reports whether the struct literally declares a
// field named lock whose type is sync.Mutex or sync.RWMutex.
func structHasMutexField(pass *Pass, st *ast.StructType, lock string) bool {
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.Name != lock {
				continue
			}
			obj, ok := pass.Info.Defs[name].(*types.Var)
			if !ok {
				return false
			}
			return isMutexType(obj.Type())
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

func collectLocksAnnotations(pass *Pass, fd *ast.FuncDecl, facts *gbFacts) {
	if fd.Doc == nil {
		return
	}
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	for _, cmt := range fd.Doc.List {
		m := gbAnnotationRE.FindStringSubmatch(cmt.Text)
		if m == nil || m[1] == "guardedby" || fn == nil {
			continue
		}
		spec := m[2]
		req, errMsg := resolveLocksSpec(pass, fd, spec)
		if errMsg != "" {
			pass.Reportf(cmt.Pos(), "//pgrdf:locks %s: %s", spec, errMsg)
			continue
		}
		facts.locks[fn] = append(facts.locks[fn], req)
	}
}

// resolveLocksSpec validates "mu" (receiver's field) or "p.mu"
// (parameter p's field) against the function's signature.
func resolveLocksSpec(pass *Pass, fd *ast.FuncDecl, spec string) (locksReq, string) {
	holder, lock := "", spec
	if i := strings.IndexByte(spec, '.'); i >= 0 {
		holder, lock = spec[:i], spec[i+1:]
	}
	if holder == "" {
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return locksReq{}, "function has no receiver; name a parameter as <param>.<mutexField>"
		}
		recvIdent := receiverIdent(fd)
		if recvIdent == nil {
			return locksReq{}, "receiver is unnamed; the lock cannot be referenced"
		}
		recvType := pass.Info.Defs[recvIdent].(*types.Var).Type()
		if !typeHasMutexField(recvType, lock) {
			return locksReq{}, "receiver type has no mutex field " + quoteName(lock)
		}
		return locksReq{param: -1, lock: lock}, ""
	}
	idx := 0
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if name.Name == holder {
				obj := pass.Info.Defs[name].(*types.Var)
				if !typeHasMutexField(obj.Type(), lock) {
					return locksReq{}, "parameter " + holder + " has no mutex field " + quoteName(lock)
				}
				return locksReq{param: idx, paramName: holder, lock: lock}, ""
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return locksReq{}, "no parameter named " + quoteName(holder)
}

func quoteName(s string) string { return "\"" + s + "\"" }

func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	if len(fd.Recv.List[0].Names) > 0 {
		return fd.Recv.List[0].Names[0]
	}
	return nil
}

// typeHasMutexField reports whether t (after pointer indirection) is a
// struct with a mutex-typed field named lock.
func typeHasMutexField(t types.Type, lock string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); f.Name() == lock {
			return isMutexType(f.Type())
		}
	}
	return false
}

// --- the checker -----------------------------------------------------

type gbChecker struct {
	pass  *Pass
	facts *gbFacts
	// fresh holds locals built from composite literals / new / zero
	// values in this function: exclusively owned, exempt from checks.
	fresh map[types.Object]bool
}

func (c *gbChecker) stmts(list []ast.Stmt, st gbState) (gbState, bool) {
	for _, s := range list {
		var term bool
		st, term = c.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *gbChecker) stmt(s ast.Stmt, st gbState) (gbState, bool) {
	switch s := s.(type) {
	case nil:
		return st, false
	case *ast.ExprStmt:
		if key, op, ok := c.lockOp(s.X); ok {
			applyLockOp(st, key, op)
			return st, false
		}
		c.expr(s.X, st)
		return st, false
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.expr(r, st)
		}
		if s.Tok == token.DEFINE {
			c.noteFresh(s)
		}
		for _, l := range s.Lhs {
			c.writeTarget(l, st)
		}
		return st, false
	case *ast.IncDecStmt:
		c.writeTarget(s.X, st)
		return st, false
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return st, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				c.expr(v, st)
			}
			if len(vs.Values) == 0 {
				// var x T — a zero value this function owns outright.
				for _, name := range vs.Names {
					if obj := c.pass.Info.Defs[name]; obj != nil {
						c.fresh[obj] = true
					}
				}
			}
		}
		return st, false
	case *ast.DeferStmt:
		if _, op, ok := c.lockOp(s.Call); ok && (op == opUnlock || op == opRUnlock) {
			// Deferred unlock runs at function exit: the lock stays
			// held for the rest of the body.
			return st, false
		}
		c.expr(s.Call, st)
		return st, false
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
		// A goroutine body never inherits the spawner's locks.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, gbState{})
		} else {
			c.checkAnnotatedCall(s.Call, gbState{})
		}
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.IfStmt:
		st, _ = c.stmt(s.Init, st)
		c.expr(s.Cond, st)
		var ends []gbState
		if thenSt, term := c.stmts(s.Body.List, st.clone()); !term {
			ends = append(ends, thenSt)
		}
		if s.Else != nil {
			if elseSt, term := c.stmt(s.Else, st.clone()); !term {
				ends = append(ends, elseSt)
			}
		} else {
			ends = append(ends, st)
		}
		if len(ends) == 0 {
			return st, false // all paths terminated; what follows is unreachable
		}
		return gbMerge(ends), false
	case *ast.ForStmt:
		st, _ = c.stmt(s.Init, st)
		c.expr(s.Cond, st)
		bodySt, term := c.stmts(s.Body.List, st.clone())
		if term {
			return st, false
		}
		bodySt, _ = c.stmt(s.Post, bodySt)
		return gbMerge([]gbState{st, bodySt}), false
	case *ast.RangeStmt:
		c.expr(s.X, st)
		if s.Tok == token.ASSIGN {
			if s.Key != nil {
				c.writeTarget(s.Key, st)
			}
			if s.Value != nil {
				c.writeTarget(s.Value, st)
			}
		}
		bodySt, term := c.stmts(s.Body.List, st.clone())
		if term {
			return st, false
		}
		return gbMerge([]gbState{st, bodySt}), false
	case *ast.SwitchStmt:
		st, _ = c.stmt(s.Init, st)
		c.expr(s.Tag, st)
		return c.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		st, _ = c.stmt(s.Init, st)
		st, _ = c.stmt(s.Assign, st)
		return c.clauses(s.Body, st)
	case *ast.SelectStmt:
		var ends []gbState
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cSt := st.clone()
			cSt, _ = c.stmt(cc.Comm, cSt)
			if endSt, term := c.stmts(cc.Body, cSt); !term {
				ends = append(ends, endSt)
			}
		}
		if len(ends) == 0 {
			return st, false
		}
		return gbMerge(ends), false
	case *ast.SendStmt:
		c.expr(s.Chan, st)
		c.expr(s.Value, st)
		return st, false
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	default:
		return st, false
	}
}

// clauses walks switch/type-switch cases, merging the surviving ends
// with the incoming state (no case may match).
func (c *gbChecker) clauses(body *ast.BlockStmt, st gbState) (gbState, bool) {
	ends := []gbState{st}
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			c.expr(e, st)
		}
		if endSt, term := c.stmts(cc.Body, st.clone()); !term {
			ends = append(ends, endSt)
		}
	}
	return gbMerge(ends), false
}

// noteFresh records locals defined from composite literals or new():
// values this function built and exclusively owns.
func (c *gbChecker) noteFresh(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		if !isFreshValue(s.Rhs[i]) {
			continue
		}
		if obj := c.pass.Info.Defs[id]; obj != nil {
			c.fresh[obj] = true
		}
	}
}

func isFreshValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

func (c *gbChecker) isFreshBase(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.Info.Uses[id]
	return obj != nil && c.fresh[obj]
}

// --- lock operations -------------------------------------------------

type lockOpKind int

const (
	opLock lockOpKind = iota
	opRLock
	opUnlock
	opRUnlock
)

// lockOp recognizes base.mu.Lock() / Unlock / RLock / RUnlock calls on
// sync.Mutex / sync.RWMutex values and returns the lock key.
func (c *gbChecker) lockOp(e ast.Expr) (key string, op lockOpKind, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return "", 0, false
	}
	recv, _, isMethod := methodCall(c.pass.Info, call)
	if !isMethod || !isMutexType(recv) {
		return "", 0, false
	}
	return types.ExprString(sel.X), op, true
}

func applyLockOp(st gbState, key string, op lockOpKind) {
	switch op {
	case opLock:
		st[key] = gbWriteHeld
	case opRLock:
		st[key] = gbReadHeld
	case opUnlock, opRUnlock:
		delete(st, key)
	}
}

// --- expression walking and access checks ----------------------------

func (c *gbChecker) expr(e ast.Expr, st gbState) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		c.access(e, st, false)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "delete" {
			// builtin delete mutates its map argument
			if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(e.Args) > 0 {
				c.writeTarget(e.Args[0], st)
				for _, a := range e.Args[1:] {
					c.expr(a, st)
				}
				return
			}
		}
		c.checkAnnotatedCall(e, st)
		c.expr(e.Fun, st)
		for _, a := range e.Args {
			c.expr(a, st)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking a guarded field's address can leak writes; require
			// the write lock.
			c.writeTarget(e.X, st)
			return
		}
		c.expr(e.X, st)
	case *ast.FuncLit:
		// A callback runs inside the call that receives it; it sees the
		// locks of its definition point.
		c.stmts(e.Body.List, st.clone())
	case *ast.BinaryExpr:
		c.expr(e.X, st)
		c.expr(e.Y, st)
	case *ast.ParenExpr:
		c.expr(e.X, st)
	case *ast.StarExpr:
		c.expr(e.X, st)
	case *ast.IndexExpr:
		c.expr(e.X, st)
		c.expr(e.Index, st)
	case *ast.IndexListExpr:
		c.expr(e.X, st)
		for _, i := range e.Indices {
			c.expr(i, st)
		}
	case *ast.SliceExpr:
		c.expr(e.X, st)
		c.expr(e.Low, st)
		c.expr(e.High, st)
		c.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		c.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, isIdent := kv.Key.(*ast.Ident); !isIdent || c.pass.Info.Uses[id] != nil {
					c.expr(kv.Key, st)
				}
				c.expr(kv.Value, st)
				continue
			}
			c.expr(el, st)
		}
	}
}

// writeTarget checks an expression appearing in a mutating position:
// assignment LHS, ++/--, &x, delete's map argument. Writing an element
// of a guarded map/slice counts as writing the field.
func (c *gbChecker) writeTarget(e ast.Expr, st gbState) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		c.access(e, st, true)
	case *ast.IndexExpr:
		c.writeTarget(e.X, st)
		c.expr(e.Index, st)
	case *ast.ParenExpr:
		c.writeTarget(e.X, st)
	case *ast.StarExpr:
		// Writing through a pointer: the pointee is not the field.
		c.expr(e.X, st)
	case *ast.Ident:
		// Local variable write.
	default:
		c.expr(e, st)
	}
}

// access checks one base.field selector against the field's contract.
func (c *gbChecker) access(sel *ast.SelectorExpr, st gbState, write bool) {
	if obj, ok := c.pass.Info.Uses[sel.Sel].(*types.Var); ok {
		if gi, guarded := c.facts.guarded[obj]; guarded && !c.isFreshBase(sel.X) {
			key := types.ExprString(sel.X) + "." + gi.lock
			mode := st[key]
			switch {
			case write && mode != gbWriteHeld:
				held := "no lock is"
				if mode == gbReadHeld {
					held = "only " + key + ".RLock is"
				}
				c.pass.Reportf(sel.Pos(),
					"%s.%s is written without %s write-held (%s held); //pgrdf:guardedby %s requires %s.Lock",
					types.ExprString(sel.X), sel.Sel.Name, key, held, gi.lock, key)
			case !write && mode == gbNotHeld:
				c.pass.Reportf(sel.Pos(),
					"%s.%s is read without %s held; //pgrdf:guardedby %s requires the lock (RLock suffices for reads)",
					types.ExprString(sel.X), sel.Sel.Name, key, gi.lock)
			}
		}
	}
	c.expr(sel.X, st)
}

// checkAnnotatedCall enforces the caller side of //pgrdf:locks: calling
// an annotated function requires the declared lock held (in any mode).
func (c *gbChecker) checkAnnotatedCall(call *ast.CallExpr, st gbState) {
	fn := calleeFunc(c.pass.Info, call)
	if fn == nil {
		return
	}
	for _, req := range c.facts.locks[fn] {
		var base ast.Expr
		if req.param < 0 {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				continue // method value / expression call: out of lexical reach
			}
			base = sel.X
		} else {
			if req.param >= len(call.Args) {
				continue
			}
			base = call.Args[req.param]
			if u, ok := ast.Unparen(base).(*ast.UnaryExpr); ok && u.Op == token.AND {
				base = u.X
			}
		}
		if c.isFreshBase(base) {
			continue
		}
		key := types.ExprString(base) + "." + req.lock
		if st[key] == gbNotHeld {
			c.pass.Reportf(call.Pos(),
				"call to %s requires %s held (//pgrdf:locks on the callee); acquire it or annotate the caller",
				fn.Name(), key)
		}
	}
}
