package sparql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// Parse parses a SPARQL SELECT query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: rdf.PrefixMap{}}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after end of query", p.peek())
	}
	return q, nil
}

// ParseUpdate parses a SPARQL Update request (INSERT DATA, DELETE DATA,
// DELETE WHERE and DELETE/INSERT … WHERE operations, separated by
// semicolons) into one Modify per operation.
func ParseUpdate(src string) (*Update, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: rdf.PrefixMap{}}
	u, err := p.update()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after end of update", p.peek())
	}
	return u, nil
}

type parser struct {
	toks     []token
	pos      int
	prefixes rdf.PrefixMap
	blankSeq int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

// keyword matches a case-insensitive identifier keyword.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errf("expected %q, got %s", s, p.peek())
	}
	return nil
}

// ---- Query ----

func (p *parser) query() (*Query, error) {
	if err := p.prologue(); err != nil {
		return nil, err
	}
	switch {
	case p.peekKeyword("SELECT"):
		sel, err := p.selectQuery()
		if err != nil {
			return nil, err
		}
		return &Query{Prefixes: p.prefixes, Form: FormSelect, Select: sel}, nil
	case p.keyword("ASK"):
		p.keyword("WHERE")
		group, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		return &Query{
			Prefixes: p.prefixes,
			Form:     FormAsk,
			Select:   &SelectQuery{Star: true, Where: group, Limit: 1},
		}, nil
	case p.keyword("CONSTRUCT"):
		tmpl, err := p.constructTemplate()
		if err != nil {
			return nil, err
		}
		if !p.keyword("WHERE") {
			return nil, p.errf("expected WHERE after CONSTRUCT template")
		}
		group, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		sel := &SelectQuery{Star: true, Where: group, Limit: -1}
		if err := p.solutionModifiers(sel); err != nil {
			return nil, err
		}
		return &Query{Prefixes: p.prefixes, Form: FormConstruct, Select: sel, Template: tmpl}, nil
	case p.keyword("DESCRIBE"):
		var targets []TermOrVar
		for {
			t := p.peek()
			if t.kind == tokVar || t.kind == tokIRI || t.kind == tokPName {
				tv, err := p.varOrTerm()
				if err != nil {
					return nil, err
				}
				targets = append(targets, tv)
				continue
			}
			break
		}
		if len(targets) == 0 {
			return nil, p.errf("DESCRIBE requires at least one resource or variable")
		}
		sel := &SelectQuery{Star: true, Where: &GroupGraphPattern{}, Limit: -1}
		if p.keyword("WHERE") || (p.peek().kind == tokPunct && p.peek().text == "{") {
			group, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			sel.Where = group
		}
		return &Query{Prefixes: p.prefixes, Form: FormDescribe, Select: sel, Describe: targets}, nil
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT or DESCRIBE, got %s", p.peek())
	}
}

// constructTemplate parses { triples (GRAPH varOrTerm { triples })* },
// allowing variables anywhere: a CONSTRUCT or update template, and the
// quad pattern of DELETE WHERE and quad data of INSERT/DELETE DATA.
func (p *parser) constructTemplate() ([]TemplateQuad, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []TemplateQuad
	appendTriples := func(group *GroupGraphPattern, g TermOrVar) error {
		for _, e := range group.Elems {
			tp, ok := e.(*TriplePattern)
			if !ok {
				return p.errf("only triples are allowed in a quad template")
			}
			var pPos TermOrVar
			switch path := tp.P.(type) {
			case PathIRI:
				pPos = Constant(path.IRI)
			case PathVar:
				pPos = Variable(path.Name)
			default:
				return p.errf("property paths are not allowed in a quad template")
			}
			out = append(out, TemplateQuad{S: tp.S, P: pPos, O: tp.O, G: g})
		}
		return nil
	}
	for {
		if p.punct("}") {
			return out, nil
		}
		if p.keyword("GRAPH") {
			gt, err := p.varOrTerm()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			inner := &GroupGraphPattern{}
			for !p.punct("}") {
				if err := p.triplesBlock(inner, GraphCtx{}); err != nil {
					return nil, err
				}
				p.punct(".")
			}
			if err := appendTriples(inner, gt); err != nil {
				return nil, err
			}
		} else {
			group := &GroupGraphPattern{}
			if err := p.triplesBlock(group, GraphCtx{}); err != nil {
				return nil, err
			}
			if err := appendTriples(group, TermOrVar{}); err != nil {
				return nil, err
			}
		}
		p.punct(".")
	}
}

func (p *parser) prologue() error {
	for {
		switch {
		case p.keyword("PREFIX"):
			t := p.peek()
			if t.kind != tokPName || !strings.HasSuffix(t.text, ":") {
				// PNAME token carries "prefix:local"; a prefix decl has
				// empty local part, e.g. "rel:".
				if t.kind != tokPName || strings.IndexByte(t.text, ':') != len(t.text)-1 {
					return p.errf("expected prefix name ending in ':', got %s", t)
				}
			}
			p.advance()
			label := strings.TrimSuffix(t.text, ":")
			iri := p.peek()
			if iri.kind != tokIRI {
				return p.errf("expected IRI after PREFIX %s:, got %s", label, iri)
			}
			p.advance()
			p.prefixes[label] = iri.text
		case p.keyword("BASE"):
			if p.peek().kind != tokIRI {
				return p.errf("expected IRI after BASE")
			}
			p.advance() // BASE is accepted and ignored; all paper IRIs are absolute
		default:
			return nil
		}
	}
}

func (p *parser) selectQuery() (*SelectQuery, error) {
	if !p.keyword("SELECT") {
		return nil, p.errf("expected SELECT, got %s", p.peek())
	}
	sel := &SelectQuery{Limit: -1}
	if p.keyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.keyword("REDUCED") // treated as plain SELECT
	}
	// projected holds every variable projected so far; asLines the line
	// of each (expr AS ?v), for the scope check once WHERE is parsed.
	projected := map[string]bool{}
	asLines := map[string]int{}
	if p.punct("*") {
		sel.Star = true
	} else {
		for {
			t := p.peek()
			if t.kind == tokVar {
				p.advance()
				if !projected[t.text] { // a repeated variable is projected once
					projected[t.text] = true
					sel.Projection = append(sel.Projection, SelectItem{Var: t.text})
				}
				continue
			}
			if t.kind == tokPunct && t.text == "(" {
				p.advance()
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				if !p.keyword("AS") {
					return nil, p.errf("expected AS in projection expression")
				}
				v := p.peek()
				if v.kind != tokVar {
					return nil, p.errf("expected variable after AS")
				}
				if projected[v.text] {
					return nil, p.errf("?%s is already projected; (expr AS ?%s) must introduce a new variable", v.text, v.text)
				}
				p.advance()
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				projected[v.text] = true
				asLines[v.text] = v.line
				sel.Projection = append(sel.Projection, SelectItem{Var: v.text, Expr: e})
				continue
			}
			break
		}
		if len(sel.Projection) == 0 {
			return nil, p.errf("empty SELECT projection")
		}
	}
	p.keyword("WHERE")
	group, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	sel.Where = group
	if len(asLines) > 0 {
		// SPARQL 1.1 §18.2.1: the variable of (expr AS ?v) must not be
		// in scope in the WHERE pattern.
		scope := map[string]bool{}
		inScope(group, scope)
		for _, it := range sel.Projection {
			if it.Expr != nil && scope[it.Var] {
				return nil, fmt.Errorf("sparql: line %d: ?%s is already in scope in WHERE; (expr AS ?%s) must introduce a new variable",
					asLines[it.Var], it.Var, it.Var)
			}
		}
	}
	if err := p.solutionModifiers(sel); err != nil {
		return nil, err
	}
	return sel, nil
}

// inScope adds to vars the variables in scope after group g (SPARQL 1.1
// §18.2.1): those of its triple patterns, GRAPH ?g, BIND, VALUES,
// OPTIONAL and UNION branches, and a sub-SELECT's projection — not those
// used only in a FILTER or MINUS.
func inScope(g *GroupGraphPattern, vars map[string]bool) {
	add := func(tv TermOrVar) {
		if tv.IsVar {
			vars[tv.Var] = true
		}
	}
	for _, el := range g.Elems {
		switch el := el.(type) {
		case *TriplePattern:
			add(el.S)
			add(el.O)
			if pv, ok := el.P.(PathVar); ok {
				vars[pv.Name] = true
			}
			if el.Graph.Kind == GraphVar {
				vars[el.Graph.Var] = true
			}
		case *GraphPattern:
			add(el.Graph)
			inScope(el.Group, vars)
		case *UnionPattern:
			for _, b := range el.Branches {
				inScope(b, vars)
			}
		case *OptionalPattern:
			inScope(el.Group, vars)
		case *BindElem:
			vars[el.Var] = true
		case *ValuesElem:
			for _, v := range el.Vars {
				vars[v] = true
			}
		case *SubSelect:
			if el.Select.Star {
				inScope(el.Select.Where, vars)
			}
			for _, it := range el.Select.Projection {
				vars[it.Var] = true
			}
		}
	}
}

func (p *parser) solutionModifiers(sel *SelectQuery) error {
	if p.keyword("GROUP") {
		if !p.keyword("BY") {
			return p.errf("expected BY after GROUP")
		}
		for {
			t := p.peek()
			if t.kind == tokVar {
				p.advance()
				sel.GroupBy = append(sel.GroupBy, ExprVar{Name: t.text})
				continue
			}
			if t.kind == tokPunct && t.text == "(" {
				p.advance()
				e, err := p.expression()
				if err != nil {
					return err
				}
				if err := p.expectPunct(")"); err != nil {
					return err
				}
				sel.GroupBy = append(sel.GroupBy, e)
				continue
			}
			break
		}
		if len(sel.GroupBy) == 0 {
			return p.errf("empty GROUP BY")
		}
	}
	if p.keyword("HAVING") {
		for p.peek().kind == tokPunct && p.peek().text == "(" {
			p.advance()
			e, err := p.expression()
			if err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			sel.Having = append(sel.Having, e)
		}
		if len(sel.Having) == 0 {
			return p.errf("empty HAVING")
		}
	}
	if p.keyword("ORDER") {
		if !p.keyword("BY") {
			return p.errf("expected BY after ORDER")
		}
		for {
			desc := false
			switch {
			case p.keyword("DESC"):
				desc = true
			case p.keyword("ASC"):
			default:
				t := p.peek()
				if t.kind == tokVar {
					p.advance()
					sel.OrderBy = append(sel.OrderBy, OrderKey{Expr: ExprVar{Name: t.text}})
					continue
				}
				if t.kind == tokPunct && t.text == "(" {
					p.advance()
					e, err := p.expression()
					if err != nil {
						return err
					}
					if err := p.expectPunct(")"); err != nil {
						return err
					}
					sel.OrderBy = append(sel.OrderBy, OrderKey{Expr: e})
					continue
				}
				if len(sel.OrderBy) == 0 {
					return p.errf("empty ORDER BY")
				}
				goto done
			}
			if err := p.expectPunct("("); err != nil {
				return err
			}
			e, err := p.expression()
			if err != nil {
				return err
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			sel.OrderBy = append(sel.OrderBy, OrderKey{Expr: e, Desc: desc})
		}
	}
done:
	for {
		switch {
		case p.keyword("LIMIT"):
			t := p.peek()
			if t.kind != tokInteger {
				return p.errf("expected integer after LIMIT")
			}
			p.advance()
			sel.Limit = atoiMust(t.text)
		case p.keyword("OFFSET"):
			t := p.peek()
			if t.kind != tokInteger {
				return p.errf("expected integer after OFFSET")
			}
			p.advance()
			sel.Offset = atoiMust(t.text)
		default:
			return nil
		}
	}
}

func atoiMust(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// ---- Group graph patterns ----

func (p *parser) groupGraphPattern() (*GroupGraphPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	group := &GroupGraphPattern{}
	// Sub-select?
	if p.peekKeyword("SELECT") {
		sel, err := p.selectQuery()
		if err != nil {
			return nil, err
		}
		group.Elems = append(group.Elems, &SubSelect{Select: sel})
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return group, nil
	}
	for {
		if p.punct("}") {
			return group, nil
		}
		switch {
		case p.keyword("FILTER"):
			e, err := p.constraint()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &FilterElem{Cond: e})
		case p.keyword("BIND"):
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if !p.keyword("AS") {
				return nil, p.errf("expected AS in BIND")
			}
			v := p.peek()
			if v.kind != tokVar {
				return nil, p.errf("expected variable after AS in BIND")
			}
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &BindElem{Expr: e, Var: v.text})
		case p.keyword("OPTIONAL"):
			g, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &OptionalPattern{Group: g})
		case p.keyword("MINUS"):
			g, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &MinusPattern{Group: g})
		case p.keyword("GRAPH"):
			gt, err := p.varOrTerm()
			if err != nil {
				return nil, err
			}
			g, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, &GraphPattern{Graph: gt, Group: g})
		case p.keyword("VALUES"):
			v, err := p.valuesBlock()
			if err != nil {
				return nil, err
			}
			group.Elems = append(group.Elems, v)
		case p.peek().kind == tokPunct && p.peek().text == "{":
			// Group or UNION chain.
			first, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			union := &UnionPattern{Branches: []*GroupGraphPattern{first}}
			for p.keyword("UNION") {
				br, err := p.groupGraphPattern()
				if err != nil {
					return nil, err
				}
				union.Branches = append(union.Branches, br)
			}
			if len(union.Branches) == 1 {
				// Plain nested group: splice its elements.
				group.Elems = append(group.Elems, first.Elems...)
			} else {
				group.Elems = append(group.Elems, union)
			}
		default:
			if err := p.triplesBlock(group, GraphCtx{}); err != nil {
				return nil, err
			}
		}
		p.punct(".") // optional separator
	}
}

func (p *parser) constraint() (Expr, error) {
	// FILTER ( expr ) or FILTER builtInCall(...)
	if p.peek().kind == tokPunct && p.peek().text == "(" {
		p.advance()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	}
	return p.primaryExpression()
}

func (p *parser) valuesBlock() (*ValuesElem, error) {
	v := &ValuesElem{}
	single := false
	if p.peek().kind == tokVar {
		single = true
		v.Vars = []string{p.advance().text}
	} else {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for p.peek().kind == tokVar {
			v.Vars = append(v.Vars, p.advance().text)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.punct("}") {
		var row []rdf.Term
		if single {
			t, err := p.groundTermOrUndef()
			if err != nil {
				return nil, err
			}
			row = []rdf.Term{t}
		} else {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for i := 0; i < len(v.Vars); i++ {
				t, err := p.groundTermOrUndef()
				if err != nil {
					return nil, err
				}
				row = append(row, t)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		v.Rows = append(v.Rows, row)
	}
	return v, nil
}

func (p *parser) groundTermOrUndef() (rdf.Term, error) {
	if p.keyword("UNDEF") {
		return rdf.Term{}, nil
	}
	tv, err := p.varOrTerm()
	if err != nil {
		return rdf.Term{}, err
	}
	if tv.IsVar {
		return rdf.Term{}, p.errf("variables not allowed in VALUES data")
	}
	return tv.Term, nil
}

// triplesBlock parses subject predicateObjectList (';' and ',' lists).
func (p *parser) triplesBlock(group *GroupGraphPattern, g GraphCtx) error {
	subj, err := p.varOrTerm()
	if err != nil {
		return err
	}
	for {
		path, err := p.path()
		if err != nil {
			return err
		}
		for {
			obj, err := p.varOrTerm()
			if err != nil {
				return err
			}
			group.Elems = append(group.Elems, &TriplePattern{S: subj, P: path, O: obj, Graph: g})
			if !p.punct(",") {
				break
			}
		}
		if !p.punct(";") {
			return nil
		}
		// Allow trailing ';' before '.' or '}'.
		if t := p.peek(); t.kind == tokPunct && (t.text == "." || t.text == "}") {
			return nil
		}
	}
}

func (p *parser) varOrTerm() (TermOrVar, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return Variable(t.text), nil
	case tokIRI:
		p.advance()
		return Constant(rdf.NewIRI(t.text)), nil
	case tokPName:
		p.advance()
		iri, ok := p.prefixes.Expand(t.text)
		if !ok {
			return TermOrVar{}, p.errf("unknown prefix in %q", t.text)
		}
		return Constant(rdf.NewIRI(iri)), nil
	case tokBlank:
		p.advance()
		return Constant(rdf.NewBlank(t.text)), nil
	case tokString:
		p.advance()
		return p.literalTail(t.text)
	case tokInteger:
		p.advance()
		return Constant(rdf.NewTypedLiteral(t.text, rdf.XSDInteger)), nil
	case tokDecimal:
		p.advance()
		return Constant(rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)), nil
	case tokDouble:
		p.advance()
		return Constant(rdf.NewTypedLiteral(t.text, rdf.XSDDouble)), nil
	case tokIdent:
		if strings.EqualFold(t.text, "true") {
			p.advance()
			return Constant(rdf.NewBoolean(true)), nil
		}
		if strings.EqualFold(t.text, "false") {
			p.advance()
			return Constant(rdf.NewBoolean(false)), nil
		}
		if t.text == "a" {
			p.advance()
			return Constant(rdf.NewIRI(rdf.RDFType)), nil
		}
	case tokPunct:
		if t.text == "[" {
			return TermOrVar{}, p.errf("blank node property lists are not supported")
		}
	}
	return TermOrVar{}, p.errf("expected a term or variable, got %s", t)
}

func (p *parser) literalTail(lex string) (TermOrVar, error) {
	t := p.peek()
	if t.kind == tokLangTag {
		p.advance()
		return Constant(rdf.NewLangLiteral(lex, t.text)), nil
	}
	if t.kind == tokPunct && t.text == "^^" {
		p.advance()
		dt := p.peek()
		switch dt.kind {
		case tokIRI:
			p.advance()
			return Constant(rdf.NewTypedLiteral(lex, dt.text)), nil
		case tokPName:
			p.advance()
			iri, ok := p.prefixes.Expand(dt.text)
			if !ok {
				return TermOrVar{}, p.errf("unknown prefix in %q", dt.text)
			}
			return Constant(rdf.NewTypedLiteral(lex, iri)), nil
		default:
			return TermOrVar{}, p.errf("expected datatype IRI after ^^")
		}
	}
	return Constant(rdf.NewLiteral(lex)), nil
}

// ---- Property paths ----
//
// Precedence (loosest to tightest): alternative '|', sequence '/',
// prefix '^', postfix '* + ?', primary (IRI, 'a', var, '(' path ')').

func (p *parser) path() (Path, error) {
	return p.pathAlt()
}

func (p *parser) pathAlt() (Path, error) {
	left, err := p.pathSeq()
	if err != nil {
		return nil, err
	}
	for p.punct("|") {
		right, err := p.pathSeq()
		if err != nil {
			return nil, err
		}
		left = PathAlt{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) pathSeq() (Path, error) {
	left, err := p.pathElt()
	if err != nil {
		return nil, err
	}
	for p.punct("/") {
		right, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		left = PathSeq{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) pathElt() (Path, error) {
	if p.punct("^") {
		inner, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		return PathInverse{Inner: inner}, nil
	}
	prim, err := p.pathPrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("*"):
			prim = PathStar{Inner: prim}
		case p.punct("+"):
			prim = PathPlus{Inner: prim}
		case p.punct("?"):
			prim = PathOpt{Inner: prim}
		default:
			return prim, nil
		}
	}
}

func (p *parser) pathPrimary() (Path, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return PathVar{Name: t.text}, nil
	case tokIRI:
		p.advance()
		return PathIRI{IRI: rdf.NewIRI(t.text)}, nil
	case tokPName:
		p.advance()
		iri, ok := p.prefixes.Expand(t.text)
		if !ok {
			return nil, p.errf("unknown prefix in %q", t.text)
		}
		return PathIRI{IRI: rdf.NewIRI(iri)}, nil
	case tokIdent:
		if t.text == "a" {
			p.advance()
			return PathIRI{IRI: rdf.NewIRI(rdf.RDFType)}, nil
		}
	case tokPunct:
		if t.text == "(" {
			p.advance()
			inner, err := p.path()
			if err != nil {
				return nil, err
			}
			return inner, p.expectPunct(")")
		}
	}
	return nil, p.errf("expected a predicate or path, got %s", t)
}

// ---- Expressions ----
//
// Precedence: || < && < relational < additive < multiplicative < unary.

func (p *parser) expression() (Expr, error) {
	return p.orExpr()
}

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("||") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("&&") {
		right, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		left = ExprBinary{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) relExpr() (Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.punct(op) {
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return ExprBinary{Op: op, Left: left, Right: right}, nil
		}
	}
	if p.keyword("IN") {
		return p.inList(left, false)
	}
	if p.peekKeyword("NOT") {
		p.advance()
		if !p.keyword("IN") {
			return nil, p.errf("expected IN after NOT")
		}
		return p.inList(left, true)
	}
	return left, nil
}

// inList desugars `x IN (a, b)` to `x = a || x = b`.
func (p *parser) inList(left Expr, negate bool) (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var e Expr
	for {
		item, err := p.expression()
		if err != nil {
			return nil, err
		}
		eq := ExprBinary{Op: "=", Left: left, Right: item}
		if e == nil {
			e = eq
		} else {
			e = ExprBinary{Op: "||", Left: e, Right: eq}
		}
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if e == nil {
		e = ExprTerm{Term: rdf.NewBoolean(negate)}
	} else if negate {
		e = ExprUnary{Op: "!", Inner: e}
	}
	return e, nil
}

func (p *parser) addExpr() (Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("+"):
			right, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			left = ExprBinary{Op: "+", Left: left, Right: right}
		case p.punct("-"):
			right, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			left = ExprBinary{Op: "-", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("*"):
			right, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			left = ExprBinary{Op: "*", Left: left, Right: right}
		case p.punct("/"):
			right, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			left = ExprBinary{Op: "/", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	switch {
	case p.punct("!"):
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return ExprUnary{Op: "!", Inner: inner}, nil
	case p.punct("-"):
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return ExprUnary{Op: "-", Inner: inner}, nil
	case p.punct("+"):
		return p.unaryExpr()
	default:
		return p.primaryExpression()
	}
}

// aggregateFuncs are the supported set functions.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
	"SAMPLE": true, "GROUP_CONCAT": true,
}

// builtinFuncs are the supported scalar built-ins.
var builtinFuncs = map[string]int{ // name -> arity (-1 = variadic)
	"ISLITERAL": 1, "ISIRI": 1, "ISURI": 1, "ISBLANK": 1, "ISNUMERIC": 1,
	"STR": 1, "LANG": 1, "DATATYPE": 1, "BOUND": 1, "SAMETERM": 2,
	"IRI": 1, "URI": 1,
	"CONCAT": -1, "UCASE": 1, "LCASE": 1, "STRLEN": 1, "CONTAINS": 2,
	"STRSTARTS": 2, "STRENDS": 2, "SUBSTR": -1, "REGEX": -1, "ABS": 1,
	"IF": 3, "COALESCE": -1, "STRAFTER": 2, "STRBEFORE": 2, "REPLACE": -1,
}

func (p *parser) primaryExpression() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	case tokVar:
		p.advance()
		return ExprVar{Name: t.text}, nil
	case tokIdent:
		upper := strings.ToUpper(t.text)
		if upper == "EXISTS" {
			p.advance()
			g, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			return ExprExists{Group: g}, nil
		}
		if upper == "NOT" {
			p.advance()
			if !p.keyword("EXISTS") {
				return nil, p.errf("expected EXISTS after NOT")
			}
			g, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			return ExprExists{Negate: true, Group: g}, nil
		}
		if aggregateFuncs[upper] {
			p.advance()
			return p.aggregate(upper)
		}
		if _, ok := builtinFuncs[upper]; ok {
			p.advance()
			args, err := p.argList()
			if err != nil {
				return nil, err
			}
			if want := builtinFuncs[upper]; want >= 0 && len(args) != want {
				return nil, p.errf("%s expects %d argument(s), got %d", upper, want, len(args))
			}
			return ExprCall{Name: upper, Args: args}, nil
		}
		if strings.EqualFold(t.text, "true") {
			p.advance()
			return ExprTerm{Term: rdf.NewBoolean(true)}, nil
		}
		if strings.EqualFold(t.text, "false") {
			p.advance()
			return ExprTerm{Term: rdf.NewBoolean(false)}, nil
		}
		return nil, p.errf("unknown function or keyword %q in expression", t.text)
	}
	tv, err := p.varOrTerm()
	if err != nil {
		return nil, err
	}
	return ExprTerm{Term: tv.Term}, nil
}

func (p *parser) aggregate(name string) (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := ExprAggregate{Func: name}
	if p.keyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.punct("*") {
		if name != "COUNT" {
			return nil, p.errf("only COUNT may use *")
		}
	} else {
		arg, err := p.expression()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	return agg, p.expectPunct(")")
}

func (p *parser) argList() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.punct(")") {
		return args, nil
	}
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if !p.punct(",") {
			break
		}
	}
	return args, p.expectPunct(")")
}

// ---- Updates ----

func (p *parser) update() (*Update, error) {
	u := &Update{}
	for {
		if err := p.prologue(); err != nil {
			return nil, err
		}
		switch {
		case p.keyword("INSERT"):
			if p.keyword("DATA") {
				quads, err := p.quadData()
				if err != nil {
					return nil, err
				}
				u.Ops = append(u.Ops, Modify{Insert: quads, Where: &GroupGraphPattern{}})
				break
			}
			// INSERT { tmpl } WHERE { pattern }
			tmpl, err := p.constructTemplate()
			if err != nil {
				return nil, err
			}
			if !p.keyword("WHERE") {
				return nil, p.errf("expected WHERE after INSERT template")
			}
			g, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			u.Ops = append(u.Ops, Modify{Insert: tmpl, Where: g})
		case p.keyword("DELETE"):
			if p.keyword("DATA") {
				quads, err := p.quadData()
				if err != nil {
					return nil, err
				}
				u.Ops = append(u.Ops, Modify{Delete: quads, Where: &GroupGraphPattern{}})
			} else if p.keyword("WHERE") {
				// DELETE WHERE P is DELETE P WHERE P, so P is a quad
				// template: plain triples, optionally under GRAPH.
				tmpl, err := p.constructTemplate()
				if err != nil {
					return nil, err
				}
				u.Ops = append(u.Ops, Modify{Delete: tmpl, Where: templatePattern(tmpl)})
			} else if p.peek().kind == tokPunct && p.peek().text == "{" {
				// DELETE { tmpl } [INSERT { tmpl }] WHERE { pattern }
				del, err := p.constructTemplate()
				if err != nil {
					return nil, err
				}
				var ins []TemplateQuad
				if p.keyword("INSERT") {
					ins, err = p.constructTemplate()
					if err != nil {
						return nil, err
					}
				}
				if !p.keyword("WHERE") {
					return nil, p.errf("expected WHERE after DELETE/INSERT templates")
				}
				g, err := p.groupGraphPattern()
				if err != nil {
					return nil, err
				}
				u.Ops = append(u.Ops, Modify{Delete: del, Insert: ins, Where: g})
			} else {
				return nil, p.errf("expected DATA, WHERE or a template after DELETE")
			}
		default:
			if len(u.Ops) == 0 {
				return nil, p.errf("expected INSERT or DELETE, got %s", p.peek())
			}
			u.Prefixes = p.prefixes
			return u, nil
		}
		if !p.punct(";") {
			u.Prefixes = p.prefixes
			return u, nil
		}
	}
}

// quadData parses the quads of INSERT DATA or DELETE DATA as a ground
// template: no variables, and every quad valid RDF (no literal subject
// or graph).
func (p *parser) quadData() ([]TemplateQuad, error) {
	tmpl, err := p.constructTemplate()
	if err != nil {
		return nil, err
	}
	for _, tq := range tmpl {
		if tq.S.IsVar || tq.P.IsVar || tq.O.IsVar || tq.G.IsVar {
			return nil, p.errf("variables not allowed in ground quad data")
		}
		if err := rdf.NewQuad(tq.S.Term, tq.P.Term, tq.O.Term, tq.G.Term).Validate(); err != nil {
			return nil, p.errf("%v", err)
		}
	}
	return tmpl, nil
}

// templatePattern is the group a DELETE WHERE template matches: each
// quad as a triple pattern, under GRAPH when it names a graph.
func templatePattern(tmpl []TemplateQuad) *GroupGraphPattern {
	g := &GroupGraphPattern{}
	for _, tq := range tmpl {
		var path Path = PathIRI{IRI: tq.P.Term}
		if tq.P.IsVar {
			path = PathVar{Name: tq.P.Var}
		}
		var elem PatternElem = &TriplePattern{S: tq.S, P: path, O: tq.O}
		if tq.G.IsVar || !tq.G.Term.IsZero() {
			elem = &GraphPattern{Graph: tq.G, Group: &GroupGraphPattern{Elems: []PatternElem{elem}}}
		}
		g.Elems = append(g.Elems, elem)
	}
	return g
}
