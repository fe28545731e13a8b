package sparql

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Engine executes SPARQL queries and updates against a store.
type Engine struct {
	st *store.Store
	// DisableHashJoin forces index nested-loop joins for every pattern:
	// no adaptive switch to hash joins over full scans and no fusing of
	// join steps into sorted intersections (DESIGN.md §20). It exists for
	// the join-strategy ablation benchmarks and as the differential tests'
	// order oracle; leave it false for normal use.
	DisableHashJoin bool

	// Limits is the per-query resource budget applied by the *Context
	// execution methods. The zero value imposes no limits. Set it once
	// before serving queries; it is read concurrently.
	Limits guard.Budget

	// hashJoinThreshold is the number of input bindings that must
	// stream through a BGP join step before the executor considers
	// switching from index nested-loop join to a hash join over a full
	// scan — the Tables 5–9 crossover. 0 means the default of 1024;
	// tests lower it to reach the hash join on small stores.
	hashJoinThreshold int

	// SlowQueryThreshold is the wall-time at or above which a query is
	// appended to SlowQueryLog. Zero logs every query (useful when
	// tracing a single request). Ignored while SlowQueryLog is nil.
	// Set both once before serving queries; they are read concurrently.
	SlowQueryThreshold time.Duration

	// SlowQueryLog receives one JSON line per slow query (see
	// SlowQueryRecord). While it is set, SELECT queries are executed
	// with profiling on so the log can attach per-operator actuals.
	SlowQueryLog io.Writer

	// CommitHook, when set, intercepts every Update operation's quad
	// delta before it is applied — the write-ahead log's entry point
	// (DESIGN.md §12). Set it once before serving updates; it is read
	// concurrently.
	CommitHook CommitHook

	// slowMu serializes writes to SlowQueryLog.
	slowMu sync.Mutex

	// metrics accumulates per-form query counters; see MetricsSnapshot.
	metrics queryMetrics

	// planCache caches compiled SELECT plans by query text. Compiled
	// plans are immutable after compilation (all per-run state lives in
	// the executor), so they are safe to share across goroutines.
	// planInflight deduplicates concurrent misses for the same text:
	// one goroutine compiles, the rest wait on the call's done channel.
	planMu sync.RWMutex
	//pgrdf:guardedby planMu
	planCache map[string]*compiled
	//pgrdf:guardedby planMu
	planInflight map[string]*compileCall

	planHits      atomic.Int64
	planMisses    atomic.Int64
	planEvictions atomic.Int64
}

// planCacheLimit bounds the compiled-plan cache; at the limit one
// arbitrary entry is evicted per insertion, so a workload that cycles
// through more than planCacheLimit distinct texts degrades to
// per-entry churn instead of wiping the whole hot set.
const planCacheLimit = 256

// compileCall is one in-flight compilation shared by every goroutine
// that missed on the same query text.
type compileCall struct {
	done chan struct{}
	cp   *compiled
	err  error
}

// NewEngine returns an engine over the given store.
func NewEngine(st *store.Store) *Engine {
	return &Engine{
		st:           st,
		planCache:    make(map[string]*compiled),
		planInflight: make(map[string]*compileCall),
	}
}

// planCached reports whether a compiled plan for the query text is
// cached, without counting a hit: ExecContext asks it to decide whether
// the text needs parsing at all.
func (e *Engine) planCached(query string) bool {
	e.planMu.RLock()
	_, ok := e.planCache[query]
	e.planMu.RUnlock()
	return ok
}

// compileCached returns the compiled plan for a SELECT query text,
// parsing and compiling only on a cache miss; q, when not nil, is the
// text already parsed by the caller and is compiled as-is. Concurrent
// misses for the same text share a single compilation.
func (e *Engine) compileCached(query string, q *Query) (*compiled, error) {
	e.planMu.RLock()
	cp, ok := e.planCache[query]
	e.planMu.RUnlock()
	if ok {
		e.planHits.Add(1)
		return cp, nil
	}

	e.planMu.Lock()
	if cp, ok = e.planCache[query]; ok {
		e.planMu.Unlock()
		e.planHits.Add(1)
		return cp, nil
	}
	if call, inflight := e.planInflight[query]; inflight {
		e.planMu.Unlock()
		<-call.done
		// Joining an in-flight compile is a hit on its (about-to-be)
		// cached entry, keeping Misses = number of compilations.
		if call.err == nil {
			e.planHits.Add(1)
		}
		return call.cp, call.err
	}
	call := &compileCall{done: make(chan struct{})}
	e.planInflight[query] = call
	e.planMu.Unlock()

	e.planMisses.Add(1)
	call.cp, call.err = e.compileSelectText(query, q)

	e.planMu.Lock()
	delete(e.planInflight, query)
	if call.err == nil {
		if len(e.planCache) >= planCacheLimit {
			for k := range e.planCache {
				delete(e.planCache, k)
				e.planEvictions.Add(1)
				break
			}
		}
		e.planCache[query] = call.cp
	}
	e.planMu.Unlock()
	close(call.done)
	return call.cp, call.err
}

// compileSelectText compiles a SELECT query text — parsing it unless q
// already holds its parse — and numbers its stages for profiling.
func (e *Engine) compileSelectText(query string, q *Query) (*compiled, error) {
	q, err := e.parseOnce(query, q)
	if err != nil {
		return nil, err
	}
	if q.Form != FormSelect {
		return nil, fmt.Errorf("sparql: Query expects a SELECT query; use Ask, Construct or Describe")
	}
	cp, err := compileSelect(q.Select, freshCounter())
	if err != nil {
		return nil, err
	}
	numberStages(cp)
	return cp, nil
}

// parseOnce returns q when the caller already parsed the text, and
// otherwise parses it, counting the parse (pgrdf_query_parses_total).
func (e *Engine) parseOnce(query string, q *Query) (*Query, error) {
	if q != nil {
		return q, nil
	}
	e.metrics.parses.Add(1)
	return Parse(query)
}

// PlanCacheStats returns the compiled-plan cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	e.planMu.RLock()
	entries := len(e.planCache)
	e.planMu.RUnlock()
	return PlanCacheStats{
		Entries:   entries,
		Hits:      e.planHits.Load(),
		Misses:    e.planMisses.Load(),
		Evictions: e.planEvictions.Load(),
	}
}

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// hashJoinMin returns the effective NLJ -> hash-join input threshold.
func (e *Engine) hashJoinMin() int {
	if e.hashJoinThreshold > 0 {
		return e.hashJoinThreshold
	}
	return defaultHashJoinMinInput
}

// Results is a materialized solution sequence. A zero Term in a row
// means the variable is unbound in that solution.
type Results struct {
	Vars []string
	Rows [][]rdf.Term
}

// Len returns the number of solutions.
func (r *Results) Len() int { return len(r.Rows) }

// Col returns the index of a variable in the result rows, or -1.
func (r *Results) Col(name string) int {
	for i, v := range r.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// String renders the results as a compact table for diagnostics.
func (r *Results) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Vars, "\t"))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		for i, t := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			if t.IsZero() {
				sb.WriteString("UNBOUND")
			} else {
				sb.WriteString(t.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Query parses and executes a SELECT query against the dataset named by
// model (a semantic model, a virtual model, or "" for the union of all
// models). It is the uncancellable convenience form of QueryContext.
func (e *Engine) Query(model, query string) (*Results, error) {
	return e.QueryContext(context.Background(), model, query)
}

// QueryContext is Query with cooperative cancellation and the engine's
// resource budget: execution stops promptly — returning a *guard.Error
// with kind guard.ErrTimeout, ErrCanceled or ErrBudgetExceeded — when
// ctx fires or Limits are exhausted. Internal panics are recovered into
// a *guard.Error with kind guard.ErrInternal.
func (e *Engine) QueryContext(ctx context.Context, model, query string) (*Results, error) {
	res, _, err := e.queryInternal(ctx, model, query, nil, false)
	return res, err
}

// QueryProfiled executes a SELECT query with per-operator profiling
// and returns the results together with the executed-plan profile
// (EXPLAIN ANALYZE's data; see Profile).
func (e *Engine) QueryProfiled(model, query string) (*Results, *Profile, error) {
	return e.QueryProfiledContext(context.Background(), model, query)
}

// QueryProfiledContext is QueryProfiled with cooperative cancellation
// and the engine's resource budget (see QueryContext).
func (e *Engine) QueryProfiledContext(ctx context.Context, model, query string) (*Results, *Profile, error) {
	return e.queryInternal(ctx, model, query, nil, true)
}

// queryInternal backs QueryContext, QueryProfiledContext and the SELECT
// arm of ExecContext; q is the text's parse when the caller has one (see
// compileCached). Profiling is enabled when the caller wants a profile
// or a slow-query log is installed (so over-threshold queries log with
// actuals attached).
func (e *Engine) queryInternal(ctx context.Context, model, query string, q *Query, wantProfile bool) (res *Results, prof *Profile, err error) {
	start := time.Now()
	rows := 0
	var logProf *Profile // also attached to the slow-query log line
	defer e.recordQuery(int(FormSelect), model, query, start, &err, &rows, &logProf)
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, e.Limits)
	if err != nil {
		return nil, nil, err
	}
	defer cancel()
	cp, err := e.compileCached(query, q)
	if err != nil {
		return nil, nil, err
	}
	ec, err := e.execCtxIn(g, model, cp.vt)
	if err != nil {
		return nil, nil, err
	}
	if wantProfile || e.slowLogWantsProfile() {
		ec.prof = newQueryProfile(cp.nstages)
	}
	out, err := evalSelect(ec, cp)
	if ec.prof != nil {
		logProf = buildProfile(ec, cp, model, time.Since(start), len(out))
		if wantProfile {
			prof = logProf
		}
	}
	if err != nil {
		return nil, prof, err
	}
	rows = len(out)
	res = &Results{Rows: out}
	for _, pr := range cp.projection {
		res.Vars = append(res.Vars, pr.name)
	}
	return res, prof, nil
}

// ExplainAnalyze executes the query and renders the plan annotated
// with per-operator actuals: rows in/out, guard ticks, index and
// access method, NLJ→hash switches and wall time.
func (e *Engine) ExplainAnalyze(model, query string) (string, error) {
	return e.ExplainAnalyzeContext(context.Background(), model, query)
}

// ExplainAnalyzeContext is ExplainAnalyze with cooperative
// cancellation and the engine's resource budget.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, model, query string) (string, error) {
	_, prof, err := e.queryInternal(ctx, model, query, nil, true)
	if err != nil {
		return "", err
	}
	return prof.Render(), nil
}

// Ask parses and executes an ASK query: does the pattern have at least
// one solution in the dataset?
func (e *Engine) Ask(model, query string) (bool, error) {
	return e.AskContext(context.Background(), model, query)
}

// AskContext is Ask with cooperative cancellation and the engine's
// resource budget (see QueryContext).
func (e *Engine) AskContext(ctx context.Context, model, query string) (bool, error) {
	return e.ask(ctx, model, query, nil)
}

// ask backs AskContext and the ASK arm of ExecContext; q is the text's
// parse when the caller has one.
func (e *Engine) ask(ctx context.Context, model, query string, q *Query) (found bool, err error) {
	defer e.recordQuery(int(FormAsk), model, query, time.Now(), &err, nil, nil)
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, e.Limits)
	if err != nil {
		return false, err
	}
	defer cancel()
	q, err = e.parseOnce(query, q)
	if err != nil {
		return false, err
	}
	if q.Form != FormAsk {
		return false, fmt.Errorf("sparql: Ask expects an ASK query")
	}
	w, err := compileWhere(q.Select.Where)
	if err != nil {
		return false, err
	}
	ec, err := e.whereCtx(g, model, w)
	if err != nil {
		return false, err
	}
	err = w.solutions(ec, func(binding) bool {
		found = true
		return false
	})
	return found, err
}

// Construct parses and executes a CONSTRUCT query, returning the
// distinct quads built by instantiating the template for each solution
// (template entries with an unbound variable are skipped for that
// solution, per the SPARQL semantics).
func (e *Engine) Construct(model, query string) ([]rdf.Quad, error) {
	return e.ConstructContext(context.Background(), model, query)
}

// ConstructContext is Construct with cooperative cancellation and the
// engine's resource budget (see QueryContext). MaxRows caps the number
// of constructed quads.
func (e *Engine) ConstructContext(ctx context.Context, model, query string) ([]rdf.Quad, error) {
	return e.construct(ctx, model, query, nil)
}

// construct backs ConstructContext and the CONSTRUCT arm of
// ExecContext; q is the text's parse when the caller has one.
func (e *Engine) construct(ctx context.Context, model, query string, q *Query) (out []rdf.Quad, err error) {
	rows := 0
	defer e.recordQuery(int(FormConstruct), model, query, time.Now(), &err, &rows, nil)
	defer func() { rows = len(out) }()
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, e.Limits)
	if err != nil {
		return nil, err
	}
	defer cancel()
	q, err = e.parseOnce(query, q)
	if err != nil {
		return nil, err
	}
	if q.Form != FormConstruct {
		return nil, fmt.Errorf("sparql: Construct expects a CONSTRUCT query")
	}
	w, err := compileWhere(q.Select.Where)
	if err != nil {
		return nil, err
	}
	tmpl := compileTemplates(w.c, q.Template)
	ec, err := e.whereCtx(g, model, w)
	if err != nil {
		return nil, err
	}
	seen := make(map[rdf.Quad]struct{})
	if err := w.solutions(ec, func(b binding) bool {
		instantiateTemplates(ec, tmpl, b, seen, &out)
		return ec.guard.CheckRows(len(out))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// where is a WHERE pattern compiled in its own scope for the forms that
// read its solutions row by row: ASK, CONSTRUCT, DESCRIBE and the update
// operations. Templates compile against c's variable table.
type where struct {
	c        *compiler
	pipeline []op
}

func compileWhere(pattern *GroupGraphPattern) (*where, error) {
	c := &compiler{vt: newVarTable(), seq: freshCounter()}
	pipeline, err := c.group(pattern)
	if err != nil {
		return nil, err
	}
	return &where{c: c, pipeline: pipeline}, nil
}

// whereCtx builds the execution context of w in a request guarded by
// g, once its templates are compiled: they may add variables.
func (e *Engine) whereCtx(g *guard.Guard, model string, w *where) (*execCtx, error) {
	if len(w.c.vt.names) > maxVars {
		return nil, fmt.Errorf("sparql: query uses more than %d variables", maxVars)
	}
	return e.execCtxIn(g, model, w.c.vt)
}

// solutions runs w under ec and hands fn each solution (eachRow).
func (w *where) solutions(ec *execCtx, fn func(binding) bool) error {
	return finishGuard(ec, eachRow(runPipeline(ec, w.pipeline, unitSource(len(ec.vt.names))), fn))
}

// compiledTemplate is a CONSTRUCT/Modify template entry with variables
// resolved to the WHERE scope's slots.
type compiledTemplate struct {
	s, p, o, g posRef
	hasG       bool
}

func compileTemplates(c *compiler, tmpl []TemplateQuad) []compiledTemplate {
	refOf := func(tv TermOrVar) posRef {
		if tv.IsVar {
			return posRef{isVar: true, slot: c.vt.slot(tv.Var)}
		}
		return posRef{term: tv.Term}
	}
	out := make([]compiledTemplate, 0, len(tmpl))
	for _, tq := range tmpl {
		tr := compiledTemplate{s: refOf(tq.S), p: refOf(tq.P), o: refOf(tq.O)}
		if tq.G.IsVar || !tq.G.Term.IsZero() {
			tr.g = refOf(tq.G)
			tr.hasG = true
		}
		out = append(out, tr)
	}
	return out
}

// instantiateTemplates appends the valid, novel quads produced by the
// templates under one solution. Entries with an unbound variable or an
// invalid instantiation (e.g. literal subject) are skipped, per SPARQL.
func instantiateTemplates(ec *execCtx, tmpl []compiledTemplate, b binding, seen map[rdf.Quad]struct{}, out *[]rdf.Quad) {
	resolve := func(r posRef) (rdf.Term, bool) {
		if !r.isVar {
			return r.term, true
		}
		if b[r.slot] == store.NoID {
			return rdf.Term{}, false
		}
		return ec.term(b[r.slot]), true
	}
	for _, tr := range tmpl {
		s, ok1 := resolve(tr.s)
		p, ok2 := resolve(tr.p)
		o, ok3 := resolve(tr.o)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		quad := rdf.Quad{S: s, P: p, O: o}
		if tr.hasG {
			g, ok := resolve(tr.g)
			if !ok {
				continue
			}
			quad.G = g
		}
		if quad.Validate() != nil {
			continue
		}
		if _, dup := seen[quad]; dup {
			continue
		}
		seen[quad] = struct{}{}
		*out = append(*out, quad)
	}
}

// Describe parses and executes a DESCRIBE query, returning every quad
// in which each described resource occurs as subject or object (the
// common "symmetric concise bounded description" choice — the SPARQL
// spec leaves DESCRIBE semantics to the implementation).
func (e *Engine) Describe(model, query string) ([]rdf.Quad, error) {
	return e.DescribeContext(context.Background(), model, query)
}

// DescribeContext is Describe with cooperative cancellation and the
// engine's resource budget (see QueryContext). MaxRows caps the number
// of description quads.
func (e *Engine) DescribeContext(ctx context.Context, model, query string) ([]rdf.Quad, error) {
	return e.describe(ctx, model, query, nil)
}

// describe backs DescribeContext and the DESCRIBE arm of ExecContext; q
// is the text's parse when the caller has one.
func (e *Engine) describe(ctx context.Context, model, query string, q *Query) (out []rdf.Quad, err error) {
	rows := 0
	defer e.recordQuery(int(FormDescribe), model, query, time.Now(), &err, &rows, nil)
	defer func() { rows = len(out) }()
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, e.Limits)
	if err != nil {
		return nil, err
	}
	defer cancel()
	q, err = e.parseOnce(query, q)
	if err != nil {
		return nil, err
	}
	if q.Form != FormDescribe {
		return nil, fmt.Errorf("sparql: Describe expects a DESCRIBE query")
	}
	w, err := compileWhere(q.Select.Where)
	if err != nil {
		return nil, err
	}
	ec, err := e.whereCtx(g, model, w)
	if err != nil {
		return nil, err
	}

	// Gather the set of resources to describe.
	resources := make(map[store.ID]struct{})
	var varSlots []int
	for _, tv := range q.Describe {
		if tv.IsVar {
			if slot, ok := w.c.vt.lookup(tv.Var); ok {
				varSlots = append(varSlots, slot)
			}
			continue
		}
		if id := e.st.Dict().Lookup(tv.Term); id != store.NoID {
			resources[id] = struct{}{}
		}
	}
	if len(varSlots) > 0 {
		if err := w.solutions(ec, func(b binding) bool {
			for _, slot := range varSlots {
				if b[slot] != store.NoID {
					resources[b[slot]] = struct{}{}
				}
			}
			return true
		}); err != nil {
			return nil, err
		}
	}

	seen := make(map[rdf.Quad]struct{})
	emit := func(q store.IDQuad) bool {
		quad := rdf.Quad{S: ec.term(q.S), P: ec.term(q.P), O: ec.term(q.C)}
		if q.G != store.NoID {
			quad.G = ec.term(q.G)
		}
		if _, dup := seen[quad]; !dup {
			seen[quad] = struct{}{}
			out = append(out, quad)
		}
		return ec.guard.CheckRows(len(out))
	}
	for id := range resources {
		p := store.AnyPattern()
		p.S = id
		ec.scan(p, emit)
		p = store.AnyPattern()
		p.C = id
		ec.scan(p, emit)
	}
	if err := finishGuard(ec, nil); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return rdf.CompareQuads(out[i], out[j]) < 0 })
	return out, nil
}

// Answer is ExecContext's reply, tagged with the query's form: Results
// is set for SELECT, Boolean for ASK, Quads for CONSTRUCT and DESCRIBE.
type Answer struct {
	Form    QueryForm
	Results *Results
	Boolean bool
	Quads   []rdf.Quad
}

// ParseError is the error ExecContext returns for a query text that does
// not parse; its message is the parser's.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// ExecContext runs a query of any form and parses its text at most
// once: a SELECT whose plan is cached parses nothing, and any other text
// is parsed once and dispatched on its form to the SELECT, ASK,
// CONSTRUCT or DESCRIBE execution behind the *Context methods. A text
// that does not parse returns a *ParseError and is not counted as a
// query.
func (e *Engine) ExecContext(ctx context.Context, model, query string) (ans Answer, err error) {
	var q *Query // nil on a plan-cache hit, which is always a SELECT
	if !e.planCached(query) {
		if q, err = e.parseOnce(query, nil); err != nil {
			return Answer{}, &ParseError{Err: err}
		}
		ans.Form = q.Form
	}
	switch ans.Form {
	case FormAsk:
		ans.Boolean, err = e.ask(ctx, model, query, q)
	case FormConstruct:
		ans.Quads, err = e.construct(ctx, model, query, q)
	case FormDescribe:
		ans.Quads, err = e.describe(ctx, model, query, q)
	default:
		ans.Results, _, err = e.queryInternal(ctx, model, query, q, false)
	}
	return ans, err
}

// Count executes the query and returns only the number of solutions.
func (e *Engine) Count(model, query string) (int, error) {
	res, err := e.Query(model, query)
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}

// Explain compiles the query and renders the access plan: join order,
// per-pattern semantic-network index and access method — the information
// Table 5 of the paper reports. It is EXPLAIN ANALYZE's plan tree
// (Profile) without the actuals, since nothing runs.
func (e *Engine) Explain(model, query string) (string, error) {
	q, err := e.parseOnce(query, nil)
	if err != nil {
		return "", err
	}
	cp, err := compileSelect(q.Select, freshCounter())
	if err != nil {
		return "", err
	}
	ec, err := e.execCtx(model, cp.vt)
	if err != nil {
		return "", err
	}
	p := &Profile{Dataset: datasetName(model), Plan: profilePlan(ec, cp)}
	return p.render(false), nil
}

func datasetName(model string) string {
	if model == "" {
		return "<all models>"
	}
	return model
}

// execCtxIn builds the execution context of a request guarded by g.
func (e *Engine) execCtxIn(g *guard.Guard, model string, vt *varTable) (*execCtx, error) {
	ec, err := e.execCtx(model, vt)
	if err != nil {
		return nil, err
	}
	ec.guard = g
	return ec, nil
}

// finishGuard resolves the final error of an execution: an explicit
// pipeline error wins, then a latched guard violation.
func finishGuard(ec *execCtx, err error) error {
	if err != nil {
		return err
	}
	return ec.guard.Err()
}

func (e *Engine) execCtx(model string, vt *varTable) (*execCtx, error) {
	view := e.st.View()
	ids, err := view.ResolveDataset(model)
	if err != nil {
		return nil, err
	}
	ec := &execCtx{
		st:         e.st,
		view:       view,
		vt:         vt,
		noHashJoin: e.DisableHashJoin,
		hashMin:    e.hashJoinMin(),
		// Computed terms (BIND, VALUES, extended projection, aggregate
		// results) intern into a per-query overlay so read paths never
		// grow the shared dictionary; updates resolve overlay IDs back
		// to terms before touching the store, so they share it safely.
		scratch: store.NewTermOverlay(e.st.Dict()),
	}
	// nil model set (scan everything) when the dataset is all models.
	if model != "" && len(ids) != len(view.Models()) {
		ec.models = make(map[store.ModelID]struct{}, len(ids))
		for _, id := range ids {
			ec.models[id] = struct{}{}
		}
		if len(ids) == 1 {
			ec.singleModel = ids[0]
		}
	}
	return ec, nil
}

// UpdateResult reports the effect of an update request.
type UpdateResult struct {
	Inserted int
	Deleted  int
}

// Update parses and executes a SPARQL Update request. Inserts go into
// the named model (which must be a concrete semantic model); deletes
// remove matching quads from every model in the dataset.
func (e *Engine) Update(model, request string) (UpdateResult, error) {
	return e.UpdateContext(context.Background(), model, request)
}

// UpdateContext is Update with cooperative cancellation and the
// engine's resource budget: one guard covers the request, so the WHERE
// evaluations of DELETE WHERE and DELETE/INSERT templates share its
// budget, and bulk data blocks poll it between quads. An update aborted
// mid-request leaves the already-applied operations in place (no
// rollback), mirroring the per-operation semantics of SPARQL Update.
func (e *Engine) UpdateContext(ctx context.Context, model, request string) (res UpdateResult, err error) {
	rows := 0
	defer e.recordQuery(formUpdate, model, request, time.Now(), &err, &rows, nil)
	defer func() { rows = res.Inserted + res.Deleted }()
	defer guard.Recover(&err)
	g, cancel, err := guard.Start(ctx, e.Limits)
	if err != nil {
		return res, err
	}
	defer cancel()
	u, err := ParseUpdate(request)
	if err != nil {
		return UpdateResult{}, err
	}
	for _, op := range u.Ops {
		switch x := op.(type) {
		case InsertData:
			muts := make([]Mutation, 0, len(x.Quads))
			for _, q := range x.Quads {
				if !g.Poll() {
					return res, g.Err()
				}
				if err := q.Validate(); err != nil {
					return res, err
				}
				muts = append(muts, Mutation{Insert: true, Model: model, Quad: q})
			}
			if err := e.applyMutations(muts, &res); err != nil {
				return res, err
			}
		case DeleteData:
			if e.st.View().LookupModel(model) == store.NoID {
				return res, fmt.Errorf("%w %q", store.ErrUnknownModel, model)
			}
			muts := make([]Mutation, 0, len(x.Quads))
			for _, q := range x.Quads {
				if !g.Poll() {
					return res, g.Err()
				}
				if err := q.Validate(); err != nil {
					return res, err
				}
				muts = append(muts, Mutation{Model: model, Quad: q})
			}
			if err := e.applyMutations(muts, &res); err != nil {
				return res, err
			}
		case DeleteWhere:
			n, err := e.deleteWhere(g, model, x.Where)
			if err != nil {
				return res, err
			}
			res.Deleted += n
		case Modify:
			del, ins, err := e.modify(g, model, x)
			if err != nil {
				return res, err
			}
			res.Deleted += del
			res.Inserted += ins
		default:
			return res, fmt.Errorf("sparql: unsupported update op %T", op)
		}
	}
	return res, nil
}

// deleteWhere finds all solutions of the pattern, instantiates the
// pattern quads for each, and deletes them from every model of the
// dataset. The pattern must consist of plain triple patterns (optionally
// under GRAPH).
func (e *Engine) deleteWhere(g *guard.Guard, model string, pattern *GroupGraphPattern) (int, error) {
	w, err := compileWhere(pattern)
	if err != nil {
		return 0, err
	}
	// Collect the template patterns for instantiation.
	var templates []quadPattern
	for _, op := range w.pipeline {
		bgp, ok := op.(*bgpOp)
		if !ok || len(bgp.filters) > 0 {
			return 0, fmt.Errorf("sparql: DELETE WHERE supports only plain triple patterns")
		}
		templates = append(templates, bgp.patterns...)
	}
	ec, err := e.whereCtx(g, model, w)
	if err != nil {
		return 0, err
	}
	var toDelete []rdf.Quad
	if err := w.solutions(ec, func(b binding) bool {
		for _, tp := range templates {
			q, ok := instantiate(ec, tp, b)
			if ok {
				toDelete = append(toDelete, q)
			}
		}
		return ec.guard.CheckRows(len(toDelete))
	}); err != nil {
		return 0, err
	}
	models, err := ec.view.ResolveDataset(model)
	if err != nil {
		return 0, err
	}
	// Expand the delta to concrete models and validate every quad before
	// committing, so the hook never journals an op whose apply can fail.
	muts := make([]Mutation, 0, len(toDelete)*len(models))
	for _, q := range toDelete {
		if err := q.Validate(); err != nil {
			return 0, err
		}
		for _, m := range models {
			muts = append(muts, Mutation{Model: ec.view.ModelName(m), Quad: q})
		}
	}
	var res UpdateResult
	if err := e.applyMutations(muts, &res); err != nil {
		return res.Deleted, err
	}
	return res.Deleted, nil
}

// modify executes the DELETE/INSERT..WHERE template form: the WHERE
// pattern is evaluated against the pre-update state, then all deletes
// are applied (to every model in the dataset), then all inserts (into
// the named model).
func (e *Engine) modify(g *guard.Guard, model string, m Modify) (deleted, inserted int, err error) {
	w, err := compileWhere(m.Where)
	if err != nil {
		return 0, 0, err
	}
	delTmpl := compileTemplates(w.c, m.Delete)
	insTmpl := compileTemplates(w.c, m.Insert)
	ec, err := e.whereCtx(g, model, w)
	if err != nil {
		return 0, 0, err
	}
	var toDelete, toInsert []rdf.Quad
	delSeen := make(map[rdf.Quad]struct{})
	insSeen := make(map[rdf.Quad]struct{})
	if err := w.solutions(ec, func(b binding) bool {
		instantiateTemplates(ec, delTmpl, b, delSeen, &toDelete)
		instantiateTemplates(ec, insTmpl, b, insSeen, &toInsert)
		return ec.guard.CheckRows(len(toDelete) + len(toInsert))
	}); err != nil {
		return 0, 0, err
	}
	models, err := ec.view.ResolveDataset(model)
	if err != nil {
		return 0, 0, err
	}
	// One delta for the whole operation, deletes first then inserts —
	// the order the loop below (and a replaying journal) applies them.
	// instantiateTemplates already dropped invalid quads.
	muts := make([]Mutation, 0, len(toDelete)*len(models)+len(toInsert))
	for _, q := range toDelete {
		for _, mid := range models {
			muts = append(muts, Mutation{Model: ec.view.ModelName(mid), Quad: q})
		}
	}
	for _, q := range toInsert {
		muts = append(muts, Mutation{Insert: true, Model: model, Quad: q})
	}
	var res UpdateResult
	if err := e.applyMutations(muts, &res); err != nil {
		return res.Deleted, res.Inserted, err
	}
	return res.Deleted, res.Inserted, nil
}

func instantiate(ec *execCtx, tp quadPattern, b binding) (rdf.Quad, bool) {
	resolve := func(r posRef) (rdf.Term, bool) {
		if !r.isVar {
			return r.term, true
		}
		if b[r.slot] == store.NoID {
			return rdf.Term{}, false
		}
		return ec.term(b[r.slot]), true
	}
	s, ok := resolve(tp.s)
	if !ok {
		return rdf.Quad{}, false
	}
	p, ok := resolve(tp.p)
	if !ok {
		return rdf.Quad{}, false
	}
	o, ok := resolve(tp.o)
	if !ok {
		return rdf.Quad{}, false
	}
	q := rdf.Quad{S: s, P: p, O: o}
	switch tp.g.kind {
	case GraphTerm:
		q.G = tp.g.term
	case GraphVar:
		if b[tp.g.slot] == store.NoID {
			return rdf.Quad{}, false
		}
		q.G = ec.term(b[tp.g.slot])
	}
	return q, true
}
