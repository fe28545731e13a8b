// Package sparql implements a SPARQL 1.1 subset sufficient to express
// every query in the paper (Tables 3, 5 and 10) and the update forms of
// §2.1: SELECT queries with basic graph patterns, GRAPH, FILTER,
// OPTIONAL, UNION, VALUES, BIND, sub-SELECT, aggregates with GROUP BY,
// ORDER BY / LIMIT / OFFSET / DISTINCT, property paths, and the
// INSERT DATA / DELETE DATA / DELETE WHERE / DELETE-INSERT-WHERE update
// forms, which all run as one DELETE/INSERT operation.
//
// The engine compiles queries against the ID-based quad store in
// internal/store, choosing per-pattern semantic-network indexes and
// running each join step as an index nested loop or, for the cyclic
// steps where the paper's Oracle plans switch to hash joins over full
// scans, as a sorted intersection of index ranges.
//
// Dataset semantics: a triple pattern outside a GRAPH clause matches
// quads in ANY graph (default or named), mirroring Oracle SEM_MATCH; a
// GRAPH clause restricts (or binds) the named graph. This is what makes
// the paper's NG-scheme queries like EQ2 work, where topology quads live
// in per-edge named graphs but are queried with plain patterns.
package sparql

import (
	"repro/internal/rdf"
)

// QueryForm discriminates the supported query forms.
type QueryForm uint8

// Query forms.
const (
	FormSelect QueryForm = iota
	FormAsk
	FormConstruct
	FormDescribe
)

// Query is a parsed SPARQL query.
type Query struct {
	Prefixes rdf.PrefixMap
	Form     QueryForm
	// Select carries the WHERE clause and solution modifiers for every
	// form (ASK uses only the pattern; CONSTRUCT uses pattern +
	// modifiers).
	Select *SelectQuery
	// Template holds the CONSTRUCT template (triples, or GRAPH-wrapped
	// triples).
	Template []TemplateQuad
	// Describe lists the resources (IRIs or variables) of a DESCRIBE
	// query.
	Describe []TermOrVar
}

// TemplateQuad is one CONSTRUCT template entry: a triple pattern plus an
// optional graph (term or variable).
type TemplateQuad struct {
	S, P, O TermOrVar
	G       TermOrVar // zero Term and empty var = default graph
}

// SelectQuery is a SELECT query or sub-SELECT.
type SelectQuery struct {
	Distinct   bool
	Star       bool
	Projection []SelectItem
	Where      *GroupGraphPattern
	GroupBy    []Expr
	Having     []Expr
	OrderBy    []OrderKey
	Limit      int // -1 = none
	Offset     int
}

// SelectItem is one projection: a plain variable or (expr AS var).
type SelectItem struct {
	Var  string
	Expr Expr // nil for a plain variable
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// GroupGraphPattern is a `{ ... }` group: an ordered list of elements.
type GroupGraphPattern struct {
	Elems []PatternElem
}

// PatternElem is one element of a group graph pattern.
type PatternElem interface{ patternElem() }

// TriplePattern is a triple pattern, possibly with a property path in
// predicate position and possibly inside a GRAPH context (set by the
// parser on nesting).
type TriplePattern struct {
	S, O TermOrVar
	P    Path
	// Graph context: GraphNone (match any graph), GraphTerm (a
	// specific IRI) or GraphVar.
	Graph GraphCtx
}

// GraphCtxKind discriminates the graph context of a pattern.
type GraphCtxKind uint8

// Graph context kinds.
const (
	GraphAny  GraphCtxKind = iota // not inside GRAPH: match any graph
	GraphTerm                     // GRAPH <iri> { ... }
	GraphVar                      // GRAPH ?g { ... }
)

// GraphCtx is the graph context of a triple pattern.
type GraphCtx struct {
	Kind GraphCtxKind
	Term rdf.Term // for GraphTerm
	Var  string   // for GraphVar
}

// TermOrVar is a term or a variable in a pattern position.
type TermOrVar struct {
	IsVar bool
	Var   string
	Term  rdf.Term
}

// Variable makes a variable TermOrVar.
func Variable(name string) TermOrVar { return TermOrVar{IsVar: true, Var: name} }

// Constant makes a constant TermOrVar.
func Constant(t rdf.Term) TermOrVar { return TermOrVar{Term: t} }

// Path is a SPARQL 1.1 property path.
type Path interface{ path() }

// PathIRI is a plain predicate IRI.
type PathIRI struct{ IRI rdf.Term }

// PathVar is a variable in predicate position (not a path operator, but
// shares the predicate slot).
type PathVar struct{ Name string }

// PathSeq is the sequence path `a / b`.
type PathSeq struct{ Left, Right Path }

// PathAlt is the alternative path `a | b`.
type PathAlt struct{ Left, Right Path }

// PathInverse is the inverse path `^a`.
type PathInverse struct{ Inner Path }

// PathStar is `a*` (zero or more, distinct-node semantics).
type PathStar struct{ Inner Path }

// PathPlus is `a+` (one or more, distinct-node semantics).
type PathPlus struct{ Inner Path }

// PathOpt is `a?` (zero or one).
type PathOpt struct{ Inner Path }

func (PathIRI) path()     {}
func (PathVar) path()     {}
func (PathSeq) path()     {}
func (PathAlt) path()     {}
func (PathInverse) path() {}
func (PathStar) path()    {}
func (PathPlus) path()    {}
func (PathOpt) path()     {}

// GraphPattern is `GRAPH term-or-var { ... }`.
type GraphPattern struct {
	Graph TermOrVar
	Group *GroupGraphPattern
}

// UnionPattern is `{A} UNION {B} [UNION {C} ...]`.
type UnionPattern struct {
	Branches []*GroupGraphPattern
}

// OptionalPattern is `OPTIONAL { ... }`.
type OptionalPattern struct {
	Group *GroupGraphPattern
}

// MinusPattern is `MINUS { ... }`.
type MinusPattern struct {
	Group *GroupGraphPattern
}

// FilterElem is `FILTER expr`.
type FilterElem struct {
	Cond Expr
}

// BindElem is `BIND (expr AS ?v)`.
type BindElem struct {
	Expr Expr
	Var  string
}

// ValuesElem is an inline `VALUES (?a ?b) { (..) (..) }` block. A zero
// Term means UNDEF.
type ValuesElem struct {
	Vars []string
	Rows [][]rdf.Term
}

// SubSelect is a nested `{ SELECT ... }`.
type SubSelect struct {
	Select *SelectQuery
}

func (*TriplePattern) patternElem()   {}
func (*GraphPattern) patternElem()    {}
func (*UnionPattern) patternElem()    {}
func (*OptionalPattern) patternElem() {}
func (*MinusPattern) patternElem()    {}
func (*FilterElem) patternElem()      {}
func (*BindElem) patternElem()        {}
func (*ValuesElem) patternElem()      {}
func (*SubSelect) patternElem()       {}

// Expr is a SPARQL expression.
type Expr interface{ expr() }

// ExprVar references a variable.
type ExprVar struct{ Name string }

// ExprTerm is a constant term.
type ExprTerm struct{ Term rdf.Term }

// ExprCall is a built-in function call by upper-cased name.
type ExprCall struct {
	Name string
	Args []Expr
}

// ExprBinary is a binary operation: || && = != < > <= >= + - * /.
type ExprBinary struct {
	Op          string
	Left, Right Expr
}

// ExprUnary is !x or -x or +x.
type ExprUnary struct {
	Op    string
	Inner Expr
}

// ExprAggregate is COUNT/SUM/MIN/MAX/AVG, with optional DISTINCT;
// Arg == nil means COUNT(*).
type ExprAggregate struct {
	Func     string
	Distinct bool
	Arg      Expr
}

// ExprExists is FILTER (NOT) EXISTS { pattern }.
type ExprExists struct {
	Negate bool
	Group  *GroupGraphPattern
}

func (ExprVar) expr()       {}
func (ExprTerm) expr()      {}
func (ExprCall) expr()      {}
func (ExprBinary) expr()    {}
func (ExprUnary) expr()     {}
func (ExprAggregate) expr() {}
func (ExprExists) expr()    {}

// Update is a parsed SPARQL Update request: its operations in order,
// each one Modify. INSERT DATA, DELETE DATA and DELETE WHERE parse into
// the DELETE/INSERT form SPARQL 1.1 Update defines them by.
type Update struct {
	Prefixes rdf.PrefixMap
	Ops      []Modify
}

// Modify is the template update form:
// DELETE { tmpl } INSERT { tmpl } WHERE { pattern } — either template
// may be empty. INSERT DATA and DELETE DATA are a ground template with
// an empty WHERE; DELETE WHERE P is DELETE P WHERE P.
type Modify struct {
	Delete []TemplateQuad
	Insert []TemplateQuad
	Where  *GroupGraphPattern
}
