package sparql

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
)

// varTable assigns dense slots to variables of one (sub)query scope.
type varTable struct {
	names []string
	index map[string]int
}

func newVarTable() *varTable {
	return &varTable{index: make(map[string]int)}
}

func (vt *varTable) slot(name string) int {
	if i, ok := vt.index[name]; ok {
		return i
	}
	i := len(vt.names)
	vt.names = append(vt.names, name)
	vt.index[name] = i
	return i
}

func (vt *varTable) lookup(name string) (int, bool) {
	i, ok := vt.index[name]
	return i, ok
}

// binding is one solution mapping: slot -> term ID (NoID = unbound).
// Bindings passed to yield callbacks are only valid for the duration of
// the call; operators that retain them must clone.
type binding []store.ID

func (b binding) clone() binding {
	c := make(binding, len(b))
	copy(c, b)
	return c
}

// varset is a bitmask of bound variable slots (queries here have < 64
// variables; the compiler rejects more).
type varset uint64

func (v varset) has(slot int) bool    { return v&(1<<uint(slot)) != 0 }
func (v varset) with(slot int) varset { return v | 1<<uint(slot) }

const maxVars = 64

// maxPatterns bounds the triple patterns one query may lower. The
// greedy join-order search is quadratic in the pattern count, so an
// adversarial query with tens of thousands of patterns could stall the
// compiler before execution guardrails ever see it.
const maxPatterns = 4096

// posRef is one position of a quad pattern: a constant term or a var slot.
type posRef struct {
	isVar bool
	slot  int
	term  rdf.Term
}

func (c *compiler) posRefOf(tv TermOrVar) posRef {
	if tv.IsVar {
		return posRef{isVar: true, slot: c.vt.slot(tv.Var)}
	}
	return posRef{term: tv.Term}
}

// graphRef is the graph context of a quad pattern.
type graphRef struct {
	kind GraphCtxKind
	slot int      // for GraphVar
	term rdf.Term // for GraphTerm
}

// quadPattern is a lowered triple pattern (no paths).
type quadPattern struct {
	s, p, o posRef
	g       graphRef
	// text is the original pattern rendered for EXPLAIN output.
	text string
}

// vars returns the variable slots the pattern can bind.
func (qp quadPattern) vars() varset {
	var v varset
	for _, r := range []posRef{qp.s, qp.p, qp.o} {
		if r.isVar {
			v = v.with(r.slot)
		}
	}
	if qp.g.kind == GraphVar {
		v = v.with(qp.g.slot)
	}
	return v
}

// op is one operator in a compiled group pipeline. apply transforms an
// input source of bindings into an output source.
type op interface {
	apply(ec *execCtx, in source) source
	// bound returns the variable slots guaranteed bound after this op,
	// given the slots bound before it.
	bound(before varset) varset
	explain(e *explainer)
	// stageID is the operator's slot in the query profile; 0 means the
	// plan was never numbered (EXISTS sub-pipelines, non-SELECT forms)
	// and the operator is skipped by the instrumentation layer.
	stageID() int
}

// opStage is embedded by every operator to carry its profile stage id,
// assigned once by numberStages after compilation (profile.go).
type opStage struct{ sid int }

func (s *opStage) stageID() int   { return s.sid }
func (s *opStage) setStage(n int) { s.sid = n }

type stageSetter interface{ setStage(int) }

// source produces bindings, calling yield for each; yield returns false
// to stop early. A source returns an error only on evaluation failure
// (not on type errors inside filters, which SPARQL defines as false).
type source func(yield func(binding) bool) error

// compiled is a fully compiled SELECT query.
type compiled struct {
	vt         *varTable
	pipeline   []op
	distinct   bool
	projection []compiledProj
	groupBy    []compiledExpr
	aggregates []compiledAgg
	having     []compiledExpr
	orderBy    []compiledOrder
	limit      int
	offset     int
	// grouping is true when GROUP BY is present or any aggregate occurs.
	grouping bool

	// Profile stage ids for the tail phases of evalSelect (grouping,
	// ordering, projection) and the total stage count; assigned by
	// numberStages for plans that flow through compileCached, zero
	// otherwise. nstages is set on the top-level plan only.
	groupSid, sortSid, projSid int
	nstages                    int
}

// numberStages assigns dense stage ids (starting at 1) to every
// operator and tail phase of a compiled plan, recursing into union
// branches, optional/minus inners and sub-select plans. The ids index
// the preallocated per-stage slots of a queryProfile; operators left at
// sid 0 are invisible to the profiler.
func numberStages(cp *compiled) {
	n := 0
	numberPlan(cp, &n)
	cp.nstages = n
}

func numberPlan(cp *compiled, n *int) {
	numberOps(cp.pipeline, n)
	*n++
	cp.groupSid = *n
	*n++
	cp.sortSid = *n
	*n++
	cp.projSid = *n
}

func numberOps(ops []op, n *int) {
	for _, o := range ops {
		*n++
		if ss, ok := o.(stageSetter); ok {
			ss.setStage(*n)
		}
		switch x := o.(type) {
		case *bgpOp:
			// One stage per join step, in execution order, right after
			// the BGP's own stage.
			*n += len(x.patterns)
		case *unionOp:
			for _, br := range x.branches {
				numberOps(br, n)
			}
		case *optionalOp:
			numberOps(x.inner, n)
		case *minusOp:
			numberOps(x.inner, n)
		case *subselectOp:
			numberPlan(x.plan, n)
		}
	}
}

type compiledProj struct {
	name string
	slot int          // output slot
	expr compiledExpr // nil for plain variable or aggregate result
}

type compiledAgg struct {
	fn       string
	distinct bool
	arg      compiledExpr // nil for COUNT(*)
	slot     int          // slot receiving the result
}

type compiledOrder struct {
	expr compiledExpr
	desc bool
}

type compiler struct {
	vt       *varTable
	seq      *int // shared fresh-var counter across nested scopes
	patterns int  // total triple patterns lowered (guardrail accounting)
}

func freshCounter() *int { i := 0; return &i }

func (c *compiler) fresh(prefix string) int {
	*c.seq++
	return c.vt.slot(fmt.Sprintf(" %s%d", prefix, *c.seq)) // leading space: unspellable
}

// compileSelect compiles a SELECT (or sub-SELECT) into a plan with its
// own variable scope.
func compileSelect(sel *SelectQuery, seq *int) (*compiled, error) {
	c := &compiler{vt: newVarTable(), seq: seq}
	pipeline, err := c.group(sel.Where)
	if err != nil {
		return nil, err
	}
	markBatchTail(pipeline)
	cp := &compiled{
		vt:       c.vt,
		pipeline: pipeline,
		distinct: sel.Distinct,
		limit:    sel.Limit,
		offset:   sel.Offset,
	}

	// GROUP BY keys.
	for _, g := range sel.GroupBy {
		ce, err := c.expr(g)
		if err != nil {
			return nil, err
		}
		cp.groupBy = append(cp.groupBy, ce)
	}

	// Projection: extract aggregates into synthetic slots.
	if sel.Star {
		// All named (non-synthetic) variables, in first-use order.
		for i, name := range c.vt.names {
			if name != "" && name[0] != ' ' {
				cp.projection = append(cp.projection, compiledProj{name: name, slot: i})
			}
		}
		if len(cp.projection) == 0 {
			return nil, fmt.Errorf("sparql: SELECT * with no variables")
		}
	} else {
		for _, item := range sel.Projection {
			slot := c.vt.slot(item.Var)
			if item.Expr == nil {
				cp.projection = append(cp.projection, compiledProj{name: item.Var, slot: slot})
				continue
			}
			ce, err := c.exprWithAggregates(item.Expr, cp, slot)
			if err != nil {
				return nil, err
			}
			cp.projection = append(cp.projection, compiledProj{name: item.Var, slot: slot, expr: ce})
		}
	}
	for _, h := range sel.Having {
		ce, err := c.exprWithAggregates(h, cp, -1)
		if err != nil {
			return nil, err
		}
		cp.having = append(cp.having, ce)
	}
	for _, o := range sel.OrderBy {
		ce, err := c.exprWithAggregates(o.Expr, cp, -1)
		if err != nil {
			return nil, err
		}
		cp.orderBy = append(cp.orderBy, compiledOrder{expr: ce, desc: o.Desc})
	}
	cp.grouping = len(cp.groupBy) > 0 || len(cp.aggregates) > 0
	if len(c.vt.names) > maxVars {
		return nil, fmt.Errorf("sparql: query uses more than %d variables", maxVars)
	}
	return cp, nil
}

// exprWithAggregates compiles an expression, replacing each aggregate
// sub-expression with a reference to a synthetic slot computed by the
// grouping operator. hintSlot is used when the whole expression is a
// single aggregate assigned to a projection slot.
func (c *compiler) exprWithAggregates(e Expr, cp *compiled, hintSlot int) (compiledExpr, error) {
	switch x := e.(type) {
	case ExprAggregate:
		slot := hintSlot
		if slot < 0 {
			slot = c.fresh("agg")
		}
		var arg compiledExpr
		if x.Arg != nil {
			var err error
			arg, err = c.expr(x.Arg)
			if err != nil {
				return nil, err
			}
		}
		cp.aggregates = append(cp.aggregates, compiledAgg{fn: x.Func, distinct: x.Distinct, arg: arg, slot: slot})
		return &exprSlot{slot: slot}, nil
	case ExprBinary:
		l, err := c.exprWithAggregates(x.Left, cp, -1)
		if err != nil {
			return nil, err
		}
		r, err := c.exprWithAggregates(x.Right, cp, -1)
		if err != nil {
			return nil, err
		}
		return &exprBinaryC{op: x.Op, left: l, right: r}, nil
	case ExprUnary:
		in, err := c.exprWithAggregates(x.Inner, cp, -1)
		if err != nil {
			return nil, err
		}
		return &exprUnaryC{op: x.Op, inner: in}, nil
	case ExprCall:
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			ca, err := c.exprWithAggregates(a, cp, -1)
			if err != nil {
				return nil, err
			}
			args[i] = ca
		}
		return &exprCallC{name: x.Name, args: args}, nil
	default:
		return c.expr(e)
	}
}

// group compiles a group graph pattern into a pipeline of operators.
// Consecutive triple patterns (including those inside GRAPH clauses over
// only-triples groups) are fused into a single BGP so the optimizer can
// order them jointly, exactly like the paper's query plans.
func (c *compiler) group(g *GroupGraphPattern) ([]op, error) {
	var pipeline []op
	var bgp []quadPattern
	var filters []*filterOp

	flushBGP := func() {
		if len(bgp) > 0 || len(filters) > 0 {
			pipeline = append(pipeline, &bgpOp{patterns: bgp, filters: filters})
			bgp, filters = nil, nil
		}
	}

	var addElems func(elems []PatternElem, gctx *GraphCtx) error
	addElems = func(elems []PatternElem, gctx *GraphCtx) error {
		for _, elem := range elems {
			switch x := elem.(type) {
			case *TriplePattern:
				eff := x.Graph
				if gctx != nil {
					eff = *gctx
				}
				qps, extra, err := c.lowerTriple(x, eff)
				if err != nil {
					return err
				}
				c.patterns += len(qps)
				if c.patterns > maxPatterns {
					return fmt.Errorf("sparql: query uses more than %d triple patterns", maxPatterns)
				}
				bgp = append(bgp, qps...)
				if len(extra) > 0 {
					// Path operators that need their own operator
					// (star/plus/opt/alt with complex structure).
					flushBGP()
					pipeline = append(pipeline, extra...)
				}
			case *GraphPattern:
				inner := GraphCtx{}
				if x.Graph.IsVar {
					inner = GraphCtx{Kind: GraphVar, Var: x.Graph.Var}
				} else {
					inner = GraphCtx{Kind: GraphTerm, Term: x.Graph.Term}
				}
				if onlyTriples(x.Group) {
					if err := addElems(x.Group.Elems, &inner); err != nil {
						return err
					}
					continue
				}
				flushBGP()
				sub, err := c.groupWithCtx(x.Group, &inner)
				if err != nil {
					return err
				}
				pipeline = append(pipeline, sub...)
			case *FilterElem:
				ce, err := c.expr(x.Cond)
				if err != nil {
					return err
				}
				filters = append(filters, &filterOp{cond: ce, need: exprVars(ce), text: "FILTER"})
			case *BindElem:
				flushBGP()
				ce, err := c.expr(x.Expr)
				if err != nil {
					return err
				}
				pipeline = append(pipeline, &bindOp{expr: ce, slot: c.vt.slot(x.Var)})
			case *UnionPattern:
				flushBGP()
				u := &unionOp{}
				for _, br := range x.Branches {
					sub, err := c.group(br)
					if err != nil {
						return err
					}
					u.branches = append(u.branches, sub)
				}
				pipeline = append(pipeline, u)
			case *OptionalPattern:
				flushBGP()
				sub, err := c.group(x.Group)
				if err != nil {
					return err
				}
				pipeline = append(pipeline, &optionalOp{inner: sub, innerVars: pipelineVars(sub)})
			case *MinusPattern:
				flushBGP()
				sub, err := c.group(x.Group)
				if err != nil {
					return err
				}
				pipeline = append(pipeline, &minusOp{inner: sub, innerVars: pipelineVars(sub)})
			case *ValuesElem:
				flushBGP()
				vo := &valuesOp{}
				for _, name := range x.Vars {
					vo.slots = append(vo.slots, c.vt.slot(name))
				}
				vo.rows = x.Rows
				pipeline = append(pipeline, vo)
			case *SubSelect:
				flushBGP()
				sub, err := compileSelect(x.Select, c.seq)
				if err != nil {
					return err
				}
				ss := &subselectOp{plan: sub}
				for _, pr := range sub.projection {
					ss.outer = append(ss.outer, c.vt.slot(pr.name))
				}
				pipeline = append(pipeline, ss)
			default:
				return fmt.Errorf("sparql: unsupported pattern element %T", elem)
			}
		}
		return nil
	}
	if err := addElems(g.Elems, nil); err != nil {
		return nil, err
	}
	flushBGP()
	return pipeline, nil
}

// groupWithCtx compiles a nested group whose elements inherit a graph
// context (GRAPH over a group containing non-triple elements).
func (c *compiler) groupWithCtx(g *GroupGraphPattern, gctx *GraphCtx) ([]op, error) {
	// Push the graph context down onto every triple pattern.
	clone := &GroupGraphPattern{}
	for _, e := range g.Elems {
		if tp, ok := e.(*TriplePattern); ok {
			cp := *tp
			cp.Graph = *gctx
			clone.Elems = append(clone.Elems, &cp)
		} else if gp, ok := e.(*GraphPattern); ok {
			clone.Elems = append(clone.Elems, gp) // inner GRAPH overrides
		} else {
			clone.Elems = append(clone.Elems, e)
		}
	}
	return c.group(clone)
}

func onlyTriples(g *GroupGraphPattern) bool {
	for _, e := range g.Elems {
		switch e.(type) {
		case *TriplePattern, *FilterElem:
		default:
			return false
		}
	}
	return true
}

// lowerTriple lowers a triple pattern with a property path into plain
// quad patterns (for IRI/var/seq/alt-free paths) plus extra operators for
// star/plus/opt closures.
func (c *compiler) lowerTriple(tp *TriplePattern, g GraphCtx) ([]quadPattern, []op, error) {
	gr := graphRef{kind: g.Kind, term: g.Term}
	if g.Kind == GraphVar {
		gr.slot = c.vt.slot(g.Var)
	}
	return c.lowerPath(c.posRefOf(tp.S), tp.P, c.posRefOf(tp.O), gr)
}

func (c *compiler) lowerPath(s posRef, p Path, o posRef, g graphRef) ([]quadPattern, []op, error) {
	switch x := p.(type) {
	case PathIRI:
		return []quadPattern{{s: s, p: posRef{term: x.IRI}, o: o, g: g, text: patternText(s, x.IRI.String(), o, c)}}, nil, nil
	case PathVar:
		slot := c.vt.slot(x.Name)
		return []quadPattern{{s: s, p: posRef{isVar: true, slot: slot}, o: o, g: g, text: patternText(s, "?"+x.Name, o, c)}}, nil, nil
	case PathInverse:
		return c.lowerPath(o, x.Inner, s, g)
	case PathSeq:
		mid := posRef{isVar: true, slot: c.fresh("seq")}
		left, lops, err := c.lowerPath(s, x.Left, mid, g)
		if err != nil {
			return nil, nil, err
		}
		right, rops, err := c.lowerPath(mid, x.Right, o, g)
		if err != nil {
			return nil, nil, err
		}
		return append(left, right...), append(lops, rops...), nil
	case PathAlt:
		// Lower each branch to its own pipeline and union them.
		lqp, lops, err := c.lowerPath(s, x.Left, o, g)
		if err != nil {
			return nil, nil, err
		}
		rqp, rops, err := c.lowerPath(s, x.Right, o, g)
		if err != nil {
			return nil, nil, err
		}
		u := &unionOp{branches: [][]op{
			append([]op{&bgpOp{patterns: lqp}}, lops...),
			append([]op{&bgpOp{patterns: rqp}}, rops...),
		}}
		return nil, []op{u}, nil
	case PathStar:
		return nil, []op{&pathOp{s: s, o: o, g: g, inner: x.Inner, min: 0, c: c}}, nil
	case PathPlus:
		return nil, []op{&pathOp{s: s, o: o, g: g, inner: x.Inner, min: 1, c: c}}, nil
	case PathOpt:
		return nil, []op{&pathOp{s: s, o: o, g: g, inner: x.Inner, min: 0, max: 1, c: c}}, nil
	default:
		return nil, nil, fmt.Errorf("sparql: unsupported path %T", p)
	}
}

func patternText(s posRef, p string, o posRef, c *compiler) string {
	return posText(s, c) + " " + p + " " + posText(o, c)
}

func posText(r posRef, c *compiler) string {
	if r.isVar {
		return "?" + c.vt.names[r.slot]
	}
	return r.term.String()
}

// pipelineVars returns the vars bound by a pipeline starting from none.
func pipelineVars(ops []op) varset {
	var v varset
	for _, o := range ops {
		v = o.bound(v)
	}
	return v
}

// exprVars returns the variable slots an expression reads.
func exprVars(e compiledExpr) varset {
	var v varset
	e.visitSlots(func(slot int) { v = v.with(slot) })
	return v
}

// sortedSlots lists the slots in a varset.
func sortedSlots(v varset) []int {
	var out []int
	for i := 0; i < maxVars; i++ {
		if v.has(i) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
