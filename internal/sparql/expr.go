package sparql

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// errTypeError is the SPARQL expression type error. Filters treat it as
// false; it is not a query failure.
var errTypeError = errors.New("sparql: expression type error")

// compiledExpr is an executable expression.
type compiledExpr interface {
	eval(ec *execCtx, b binding) (rdf.Term, error)
	visitSlots(func(int))
}

type exprSlot struct{ slot int }

func (e *exprSlot) eval(ec *execCtx, b binding) (rdf.Term, error) {
	if e.slot >= len(b) || b[e.slot] == store.NoID {
		return rdf.Term{}, errTypeError
	}
	return ec.term(b[e.slot]), nil
}
func (e *exprSlot) visitSlots(f func(int)) { f(e.slot) }

type exprConst struct{ term rdf.Term }

func (e *exprConst) eval(*execCtx, binding) (rdf.Term, error) { return e.term, nil }
func (e *exprConst) visitSlots(func(int))                     {}

// expr compiles an expression that may not contain aggregates.
func (c *compiler) expr(e Expr) (compiledExpr, error) {
	switch x := e.(type) {
	case ExprVar:
		return &exprSlot{slot: c.vt.slot(x.Name)}, nil
	case ExprTerm:
		return &exprConst{term: x.Term}, nil
	case ExprBinary:
		l, err := c.expr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(x.Right)
		if err != nil {
			return nil, err
		}
		return &exprBinaryC{op: x.Op, left: l, right: r}, nil
	case ExprUnary:
		in, err := c.expr(x.Inner)
		if err != nil {
			return nil, err
		}
		return &exprUnaryC{op: x.Op, inner: in}, nil
	case ExprCall:
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			ca, err := c.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = ca
		}
		return &exprCallC{name: x.Name, args: args}, nil
	case ExprAggregate:
		return nil, fmt.Errorf("sparql: aggregate %s not allowed here", x.Func)
	case ExprExists:
		pipeline, err := c.group(x.Group)
		if err != nil {
			return nil, err
		}
		return &exprExistsC{negate: x.Negate, pipeline: pipeline, vars: pipelineVars(pipeline)}, nil
	default:
		return nil, fmt.Errorf("sparql: unsupported expression %T", e)
	}
}

// exprExistsC implements FILTER (NOT) EXISTS: the inner pipeline is
// evaluated correlated with the current binding (shared variable scope),
// and the filter tests whether any solution exists.
type exprExistsC struct {
	negate   bool
	pipeline []op
	vars     varset
}

func (e *exprExistsC) visitSlots(f func(int)) {
	for _, slot := range sortedSlots(e.vars) {
		f(slot)
	}
}

func (e *exprExistsC) eval(ec *execCtx, b binding) (rdf.Term, error) {
	run := ec.existsRun(e)
	run.f.cb.base = b
	run.found = false
	if err := run.src(run.probe); err != nil {
		return rdf.Term{}, errTypeError
	}
	return rdf.NewBoolean(run.found != e.negate), nil
}

// existsRun is an EXISTS pattern's pipeline in one query: built over a
// feed on first use and rerun per row the filter tests, stopping at the
// first solution (probe).
type existsRun struct {
	f     feed
	src   batchSource
	found bool
	probe func(*colBatch) bool
}

// existsRun returns e's pipeline in this query. It lives on the query's
// context, not on e: concurrent queries share the compiled plan (the
// plan cache).
func (ec *execCtx) existsRun(e *exprExistsC) *existsRun {
	if run := ec.exists[e]; run != nil {
		return run
	}
	if ec.exists == nil {
		ec.exists = make(map[*exprExistsC]*existsRun)
	}
	run := &existsRun{}
	run.src = runPipeline(ec, e.pipeline, run.f.source)
	run.probe = func(*colBatch) bool {
		run.found = true
		return false
	}
	ec.exists[e] = run
	return run
}

type exprBinaryC struct {
	op          string
	left, right compiledExpr
}

func (e *exprBinaryC) visitSlots(f func(int)) {
	e.left.visitSlots(f)
	e.right.visitSlots(f)
}

func (e *exprBinaryC) eval(ec *execCtx, b binding) (rdf.Term, error) {
	switch e.op {
	case "||", "&&":
		lv, lerr := evalBool(ec, e.left, b)
		rv, rerr := evalBool(ec, e.right, b)
		// SPARQL logical operators tolerate one-sided errors.
		if e.op == "||" {
			if lerr == nil && lv || rerr == nil && rv {
				return rdf.NewBoolean(true), nil
			}
			if lerr != nil || rerr != nil {
				return rdf.Term{}, errTypeError
			}
			return rdf.NewBoolean(false), nil
		}
		if lerr == nil && !lv || rerr == nil && !rv {
			return rdf.NewBoolean(false), nil
		}
		if lerr != nil || rerr != nil {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewBoolean(true), nil
	}
	lt, err := e.left.eval(ec, b)
	if err != nil {
		return rdf.Term{}, err
	}
	rt, err := e.right.eval(ec, b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch e.op {
	case "=", "!=":
		eq, err := termsEqual(lt, rt)
		if err != nil {
			return rdf.Term{}, err
		}
		if e.op == "!=" {
			eq = !eq
		}
		return rdf.NewBoolean(eq), nil
	case "<", ">", "<=", ">=":
		cv, ok := compareTerms(lt, rt)
		if !ok {
			return rdf.Term{}, errTypeError
		}
		var res bool
		switch e.op {
		case "<":
			res = cv < 0
		case ">":
			res = cv > 0
		case "<=":
			res = cv <= 0
		default:
			res = cv >= 0
		}
		return rdf.NewBoolean(res), nil
	case "+", "-", "*", "/":
		return arith(e.op, lt, rt)
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown operator %q", e.op)
	}
}

// termsEqual implements RDFterm-equal: by value for comparable literals,
// by term identity otherwise; incomparable distinct literals of unknown
// datatypes raise a type error unless identical terms.
func termsEqual(a, b rdf.Term) (bool, error) {
	if a.IsLiteral() && b.IsLiteral() {
		av, aok := rdf.LiteralValue(a)
		bv, bok := rdf.LiteralValue(b)
		if aok && bok && av.Kind != rdf.ValueUnknown && bv.Kind != rdf.ValueUnknown {
			if c, comparable := rdf.CompareValues(av, bv); comparable {
				return c == 0, nil
			}
			return false, nil
		}
		if a.Equal(b) {
			return true, nil
		}
		return false, errTypeError
	}
	return a.Equal(b), nil
}

// compareTerms orders two terms for <,>,<=,>= : literal value comparison.
func compareTerms(a, b rdf.Term) (int, bool) {
	av, aok := rdf.LiteralValue(a)
	bv, bok := rdf.LiteralValue(b)
	if !aok || !bok {
		return 0, false
	}
	return rdf.CompareValues(av, bv)
}

// orderCompare is the ORDER BY comparator: unbound < blank < IRI <
// literal, literals by value when comparable, else by term order.
func orderCompare(a, b rdf.Term) int {
	if a.IsZero() || b.IsZero() {
		switch {
		case a.IsZero() && b.IsZero():
			return 0
		case a.IsZero():
			return -1
		default:
			return 1
		}
	}
	if a.IsLiteral() && b.IsLiteral() {
		if c, ok := compareTerms(a, b); ok {
			if c != 0 {
				return c
			}
			return rdf.Compare(a, b)
		}
	}
	return rdf.Compare(a, b)
}

func arith(op string, a, b rdf.Term) (rdf.Term, error) {
	av, aok := rdf.LiteralValue(a)
	bv, bok := rdf.LiteralValue(b)
	if !aok || !bok || !av.IsNumeric() || !bv.IsNumeric() {
		return rdf.Term{}, errTypeError
	}
	kind := rdf.PromoteNumeric(av.Kind, bv.Kind)
	if op == "/" && kind == rdf.ValueInteger {
		kind = rdf.ValueDecimal // xsd:integer division yields xsd:decimal
	}
	if kind == rdf.ValueInteger {
		var r int64
		switch op {
		case "+":
			r = av.Int + bv.Int
		case "-":
			r = av.Int - bv.Int
		case "*":
			r = av.Int * bv.Int
		}
		return rdf.NewInteger(r), nil
	}
	af, bf := av.Float(), bv.Float()
	var r float64
	switch op {
	case "+":
		r = af + bf
	case "-":
		r = af - bf
	case "*":
		r = af * bf
	case "/":
		if bf == 0 {
			return rdf.Term{}, errTypeError
		}
		r = af / bf
	}
	return rdf.NumericLiteral(rdf.Value{Kind: kind, Flt: r}), nil
}

type exprUnaryC struct {
	op    string
	inner compiledExpr
}

func (e *exprUnaryC) visitSlots(f func(int)) { e.inner.visitSlots(f) }

func (e *exprUnaryC) eval(ec *execCtx, b binding) (rdf.Term, error) {
	if e.op == "!" {
		v, err := evalBool(ec, e.inner, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!v), nil
	}
	t, err := e.inner.eval(ec, b)
	if err != nil {
		return rdf.Term{}, err
	}
	v, ok := rdf.LiteralValue(t)
	if !ok || !v.IsNumeric() {
		return rdf.Term{}, errTypeError
	}
	if v.Kind == rdf.ValueInteger {
		return rdf.NewInteger(-v.Int), nil
	}
	return rdf.NumericLiteral(rdf.Value{Kind: v.Kind, Flt: -v.Flt}), nil
}

type exprCallC struct {
	name string
	args []compiledExpr
	re   *regexp.Regexp // cached for REGEX with constant pattern
}

func (e *exprCallC) visitSlots(f func(int)) {
	for _, a := range e.args {
		a.visitSlots(f)
	}
}

func (e *exprCallC) eval(ec *execCtx, b binding) (rdf.Term, error) {
	switch e.name {
	case "BOUND":
		slot, ok := e.args[0].(*exprSlot)
		if !ok {
			return rdf.Term{}, errTypeError
		}
		bound := slot.slot < len(b) && b[slot.slot] != store.NoID
		return rdf.NewBoolean(bound), nil
	case "COALESCE":
		for _, a := range e.args {
			if t, err := a.eval(ec, b); err == nil {
				return t, nil
			}
		}
		return rdf.Term{}, errTypeError
	case "IF":
		cond, err := evalBool(ec, e.args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		if cond {
			return e.args[1].eval(ec, b)
		}
		return e.args[2].eval(ec, b)
	case "ISLITERAL", "ISIRI", "ISURI", "ISBLANK":
		// The kind tests read their one argument directly: they run on
		// every row of a FILTER, where the args slice below would be
		// allocated per row.
		t, err := e.args[0].eval(ec, b)
		if err != nil {
			return rdf.Term{}, err
		}
		switch e.name {
		case "ISLITERAL":
			return rdf.NewBoolean(t.IsLiteral()), nil
		case "ISBLANK":
			return rdf.NewBoolean(t.IsBlank()), nil
		}
		return rdf.NewBoolean(t.IsIRI()), nil
	}

	args := make([]rdf.Term, len(e.args))
	for i, a := range e.args {
		t, err := a.eval(ec, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	switch e.name {
	case "ISNUMERIC":
		v, ok := rdf.LiteralValue(args[0])
		return rdf.NewBoolean(ok && v.IsNumeric()), nil
	case "STR":
		switch args[0].Kind {
		case rdf.KindIRI:
			return rdf.NewLiteral(args[0].Value), nil
		case rdf.KindLiteral:
			return rdf.NewLiteral(args[0].Value), nil
		default:
			return rdf.Term{}, errTypeError
		}
	case "LANG":
		if !args[0].IsLiteral() {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewLiteral(args[0].Lang), nil
	case "DATATYPE":
		if !args[0].IsLiteral() {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewIRI(args[0].DatatypeIRI()), nil
	case "SAMETERM":
		return rdf.NewBoolean(args[0].Equal(args[1])), nil
	case "IRI", "URI":
		switch args[0].Kind {
		case rdf.KindIRI:
			return args[0], nil
		case rdf.KindLiteral:
			if args[0].DatatypeIRI() != rdf.XSDString {
				return rdf.Term{}, errTypeError
			}
			return rdf.NewIRI(args[0].Value), nil
		default:
			return rdf.Term{}, errTypeError
		}
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			s, err := stringArg(a)
			if err != nil {
				return rdf.Term{}, err
			}
			sb.WriteString(s)
		}
		return rdf.NewLiteral(sb.String()), nil
	case "UCASE", "LCASE":
		s, err := stringArg(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		if e.name == "UCASE" {
			return rdf.NewLiteral(strings.ToUpper(s)), nil
		}
		return rdf.NewLiteral(strings.ToLower(s)), nil
	case "STRLEN":
		s, err := stringArg(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewInteger(int64(len([]rune(s)))), nil
	case "CONTAINS", "STRSTARTS", "STRENDS", "STRAFTER", "STRBEFORE":
		s1, err := stringArg(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		s2, err := stringArg(args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		switch e.name {
		case "CONTAINS":
			return rdf.NewBoolean(strings.Contains(s1, s2)), nil
		case "STRSTARTS":
			return rdf.NewBoolean(strings.HasPrefix(s1, s2)), nil
		case "STRENDS":
			return rdf.NewBoolean(strings.HasSuffix(s1, s2)), nil
		case "STRAFTER":
			if i := strings.Index(s1, s2); i >= 0 {
				return rdf.NewLiteral(s1[i+len(s2):]), nil
			}
			return rdf.NewLiteral(""), nil
		default:
			if i := strings.Index(s1, s2); i >= 0 {
				return rdf.NewLiteral(s1[:i]), nil
			}
			return rdf.NewLiteral(""), nil
		}
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 {
			return rdf.Term{}, errTypeError
		}
		s, err := stringArg(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		sv, ok := rdf.LiteralValue(args[1])
		if !ok || sv.Kind != rdf.ValueInteger {
			return rdf.Term{}, errTypeError
		}
		runes := []rune(s)
		start := int(sv.Int) - 1 // SPARQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(runes) {
			start = len(runes)
		}
		end := len(runes)
		if len(args) == 3 {
			lv, ok := rdf.LiteralValue(args[2])
			if !ok || lv.Kind != rdf.ValueInteger {
				return rdf.Term{}, errTypeError
			}
			end = start + int(lv.Int)
			if end > len(runes) {
				end = len(runes)
			}
			if end < start {
				end = start
			}
		}
		return rdf.NewLiteral(string(runes[start:end])), nil
	case "ABS":
		v, ok := rdf.LiteralValue(args[0])
		if !ok || !v.IsNumeric() {
			return rdf.Term{}, errTypeError
		}
		if v.Kind == rdf.ValueInteger {
			if v.Int < 0 {
				return rdf.NewInteger(-v.Int), nil
			}
			return rdf.NewInteger(v.Int), nil
		}
		f := v.Float()
		if f < 0 {
			f = -f
		}
		return rdf.NumericLiteral(rdf.Value{Kind: v.Kind, Flt: f}), nil
	case "REGEX":
		if len(args) < 2 || len(args) > 3 {
			return rdf.Term{}, errTypeError
		}
		s, err := stringArg(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		pat, err := stringArg(args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		if len(args) == 3 {
			flags, err := stringArg(args[2])
			if err != nil {
				return rdf.Term{}, err
			}
			if strings.Contains(flags, "i") {
				pat = "(?i)" + pat
			}
		}
		re := e.re
		if re == nil {
			var cerr error
			re, cerr = regexp.Compile(pat)
			if cerr != nil {
				return rdf.Term{}, errTypeError
			}
		}
		return rdf.NewBoolean(re.MatchString(s)), nil
	case "REPLACE":
		if len(args) != 3 {
			return rdf.Term{}, errTypeError
		}
		s, err := stringArg(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		pat, err := stringArg(args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		rep, err := stringArg(args[2])
		if err != nil {
			return rdf.Term{}, err
		}
		re, cerr := regexp.Compile(pat)
		if cerr != nil {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewLiteral(re.ReplaceAllString(s, rep)), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown function %s", e.name)
	}
}

func stringArg(t rdf.Term) (string, error) {
	if t.IsLiteral() {
		return t.Value, nil
	}
	if t.IsIRI() {
		return t.Value, nil
	}
	return "", errTypeError
}

// evalBool computes the effective boolean value of an expression.
func evalBool(ec *execCtx, e compiledExpr, b binding) (bool, error) {
	t, err := e.eval(ec, b)
	if err != nil {
		return false, err
	}
	v, ok := rdf.EffectiveBoolean(t)
	if !ok {
		return false, errTypeError
	}
	return v, nil
}
