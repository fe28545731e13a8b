package sparql

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/guard"
	"repro/internal/rdf"
	"repro/internal/store"
)

// execCtx carries the store version, dataset restriction and variable
// table through execution.
type execCtx struct {
	st *store.Store
	// view is the store version pinned when the query started. Every
	// scan, estimate and dataset lookup of the query — batch driver,
	// sorted intersections, path search — reads it, so the query sees
	// one state of the store whatever writers do meanwhile, and a scan
	// callback may scan again: no read takes a lock.
	view        *store.View
	models      map[store.ModelID]struct{} // nil = all models
	singleModel store.ModelID              // set when the dataset is one model
	vt          *varTable
	nestedLoops bool         // index nested loops only: no fusion (join-strategy ablation)
	guard       *guard.Guard // nil = no cancellation or budget enforcement

	// scratch holds terms computed while answering this query (BIND,
	// VALUES, extended projection, aggregate results) so evaluation
	// never grows the store's shared dictionary. Updates resolve any
	// scratch ID back to its term before inserting into the store.
	scratch *store.TermOverlay

	// prof, when non-nil, collects per-stage actuals (DESIGN.md §11).
	// All execution hooks are nil-checked so unprofiled queries pay a
	// predictable branch and zero allocations.
	prof *queryProfile

	// exists holds the EXISTS pipelines built so far (existsRun).
	exists map[*exprExistsC]*existsRun
}

// child derives an execCtx for a nested scope (sub-select), sharing the
// guard and dataset restriction but using the inner scope's variable
// table.
func (ec *execCtx) child(vt *varTable) *execCtx {
	c := *ec
	c.vt = vt
	return &c
}

// term resolves an ID from the shared dictionary or the query's
// scratch overlay.
func (ec *execCtx) term(id store.ID) rdf.Term { return ec.scratch.Term(id) }

// intern maps a computed term to an ID without growing the shared
// dictionary: terms the dictionary lacks get scratch IDs.
func (ec *execCtx) intern(t rdf.Term) store.ID { return ec.scratch.Intern(t) }

// scan runs a store scan restricted to the dataset's models. Every row
// produced ticks the query guard, making scans the chokepoint where a
// runaway query notices cancellation, deadline expiry or budget
// exhaustion — whichever operator drives them.
func (ec *execCtx) scan(p store.Pattern, fn func(store.IDQuad) bool) {
	if g := ec.guard; g != nil {
		inner := fn
		fn = func(q store.IDQuad) bool {
			if !g.TickN(1) {
				return false
			}
			return inner(q)
		}
	}
	if ec.models == nil {
		ec.view.Scan(p, fn)
		return
	}
	if ec.singleModel != store.NoID {
		m := ec.singleModel
		ec.view.Scan(p, func(q store.IDQuad) bool {
			if q.M != m {
				return true
			}
			return fn(q)
		})
		return
	}
	ec.view.Scan(p, func(q store.IDQuad) bool {
		if _, ok := ec.models[q.M]; !ok {
			return true
		}
		return fn(q)
	})
}

// quadVisible reports whether a quad belongs to the dataset's models —
// the per-row form of the model filter ec.scan applies, used by the
// batched scan loops (which receive raw index runs).
func (ec *execCtx) quadVisible(q store.IDQuad) bool {
	if ec.models == nil {
		return true
	}
	if ec.singleModel != store.NoID {
		return q.M == ec.singleModel
	}
	_, ok := ec.models[q.M]
	return ok
}

// ---------------------------------------------------------------------
// BGP operator: ordered quad patterns with interleaved filters, executed
// as index nested loops or fused sorted intersections.
// ---------------------------------------------------------------------

type bgpOp struct {
	opStage
	patterns []quadPattern
	filters  []*filterOp
	// count is set by markCountTail when a COUNT fold is the BGP's only
	// consumer; countLive are the variables that consumer reads. When
	// rotates is set too, renaming the variables of cycle each to the
	// next maps the patterns onto themselves (rotationCycle).
	count     bool
	countLive varset
	rotates   bool
	cycle     [3]int
}

func (o *bgpOp) bound(before varset) varset {
	v := before
	for _, qp := range o.patterns {
		v |= qp.vars()
	}
	return v
}

// resolvedPattern is a quad pattern with constants resolved to IDs.
type resolvedPattern struct {
	qp       quadPattern
	ids      [4]store.ID // const IDs for S,P,O,G (NoID if var/absent)
	missing  bool        // a constant is not in the dictionary: no matches
	estConst int         // estimated rows with only constants bound
}

func (o *bgpOp) resolve(ec *execCtx) []resolvedPattern {
	rps := make([]resolvedPattern, len(o.patterns))
	for i, qp := range o.patterns {
		rp := resolvedPattern{qp: qp}
		resolvePos := func(idx int, r posRef) {
			if r.isVar {
				return
			}
			id := ec.st.Dict().Lookup(r.term)
			if id == store.NoID {
				rp.missing = true
			}
			rp.ids[idx] = id
		}
		resolvePos(0, qp.s)
		resolvePos(1, qp.p)
		resolvePos(2, qp.o)
		if qp.g.kind == GraphTerm {
			id := ec.st.Dict().Lookup(qp.g.term)
			if id == store.NoID {
				rp.missing = true
			}
			rp.ids[3] = id
		}
		if !rp.missing {
			rp.estConst = ec.view.EstimateCount(rp.constPattern())
		}
		rps[i] = rp
	}
	return rps
}

// constPattern builds the store pattern with only constants bound.
func (rp *resolvedPattern) constPattern() store.Pattern {
	p := store.AnyPattern()
	if !rp.qp.s.isVar {
		p.S = rp.ids[0]
	}
	if !rp.qp.p.isVar {
		p.P = rp.ids[1]
	}
	if !rp.qp.o.isVar {
		p.C = rp.ids[2]
	}
	if rp.qp.g.kind == GraphTerm {
		p.G = rp.ids[3]
	}
	return p
}

// boundPattern builds the store pattern given a current binding.
func (rp *resolvedPattern) boundPattern(b binding) store.Pattern {
	p := rp.constPattern()
	if rp.qp.s.isVar && b[rp.qp.s.slot] != store.NoID {
		p.S = b[rp.qp.s.slot]
	}
	if rp.qp.p.isVar && b[rp.qp.p.slot] != store.NoID {
		p.P = b[rp.qp.p.slot]
	}
	if rp.qp.o.isVar && b[rp.qp.o.slot] != store.NoID {
		p.C = b[rp.qp.o.slot]
	}
	if rp.qp.g.kind == GraphVar && b[rp.qp.g.slot] != store.NoID {
		p.G = b[rp.qp.g.slot]
	}
	return p
}

// unboundCount counts positions not bound by constants or vars in `bound`.
func (rp *resolvedPattern) unboundCount(bound varset) int {
	n := 0
	check := func(r posRef) {
		if r.isVar && !bound.has(r.slot) {
			n++
		}
	}
	check(rp.qp.s)
	check(rp.qp.p)
	check(rp.qp.o)
	if rp.qp.g.kind == GraphVar && !bound.has(rp.qp.g.slot) {
		n++
	}
	return n
}

// undoList records in-place binding extensions so they can be reverted
// after recursion; a quad pattern binds at most 4 positions.
type undoList struct {
	slots [4]int
	n     int
}

func (u *undoList) revert(b binding) {
	for i := 0; i < u.n; i++ {
		b[u.slots[i]] = store.NoID
	}
}

// bindQuad extends b in place with the quad's values for unbound var
// positions, filling the undo list, or returns false (with b already
// reverted) when a repeated variable or an already-bound variable
// conflicts. GRAPH variables never bind to the default graph.
func (rp *resolvedPattern) bindQuad(b binding, q store.IDQuad, undo *undoList) bool {
	undo.n = 0
	bind := func(isVar bool, slot int, v store.ID) bool {
		if !isVar {
			return true
		}
		cur := b[slot]
		if cur == store.NoID {
			b[slot] = v
			undo.slots[undo.n] = slot
			undo.n++
			return true
		}
		return cur == v
	}
	if !bind(rp.qp.s.isVar, rp.qp.s.slot, q.S) ||
		!bind(rp.qp.p.isVar, rp.qp.p.slot, q.P) ||
		!bind(rp.qp.o.isVar, rp.qp.o.slot, q.C) {
		undo.revert(b)
		return false
	}
	if rp.qp.g.kind == GraphVar {
		if q.G == store.NoID || !bind(true, rp.qp.g.slot, q.G) {
			undo.revert(b)
			return false
		}
	}
	return true
}

// matchesGraphCtx checks the graph-context constraint for quads coming
// from a scan where G was left unbound.
func (rp *resolvedPattern) matchesGraphCtx(q store.IDQuad) bool {
	if rp.qp.g.kind == GraphVar && q.G == store.NoID {
		return false
	}
	return true
}

// orderPatterns chooses a greedy join order: repeatedly pick the best
// next pattern by (connected to the bound variables first, then fewest
// unbound positions, then smallest constant-bound estimate). The
// connectivity rule keeps cartesian products out of plans like EQ6b,
// where a selective but disjoint pattern would otherwise be interleaved
// before the joining one. Returns indices in execution order.
func orderPatterns(rps []resolvedPattern, initial varset) []int {
	n := len(rps)
	used := make([]bool, n)
	var order []int
	bound := initial
	anyBound := initial != 0
	for len(order) < n {
		best := -1
		bestJoined, bestUnbound, bestEst := false, 99, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			joined := !anyBound || rps[i].qp.vars()&bound != 0
			ub := rps[i].unboundCount(bound)
			est := rps[i].estConst
			better := false
			switch {
			case best < 0:
				better = true
			case joined != bestJoined:
				better = joined
			case ub != bestUnbound:
				better = ub < bestUnbound
			default:
				better = est < bestEst
			}
			if better {
				best, bestJoined, bestUnbound, bestEst = i, joined, ub, est
			}
		}
		used[best] = true
		order = append(order, best)
		bound |= rps[best].qp.vars()
		anyBound = anyBound || bound != 0
	}
	return order
}

// bgpShared is the state of one BGP evaluation: resolved patterns, join
// order, filter placement, the fused groups and the per-step input
// counters the profile reads. A BGP nested under OPTIONAL, MINUS or
// UNION runs once per outer row and keeps its bgpShared across runs;
// reset clears the per-run part.
type bgpShared struct {
	ec           *execCtx
	rps          []resolvedPattern
	order        []int
	filterAt     [][]*filterOp
	finalFilters []*filterOp
	inputSeen    []int64

	// intersect[d] is the fused group whose binder runs at depth d
	// (planIntersections); nil when nothing fuses. The plan assumes an
	// input binding that binds none of vars, the BGP's variables.
	intersect []*intersectPlan
	vars      varset

	// live[k] are the variables read at or after depth k — by its and
	// later steps and filters, the rotation's rule, or the COUNT fold —
	// in count mode; nil otherwise (DESIGN.md §22). rot is the rule
	// that counts one rotation of each solution, nil when it does not
	// apply.
	live []varset
	rot  *rotation

	// Profiling slots, resolved once per apply: bgpStage is
	// the operator's own slot, stepStats[depth] the slot of the join
	// step executed at that depth (stage ids follow execution order).
	// Both are nil when profiling is off.
	bgpStage  *profStage
	stepStats []*profStage
}

// stepStat returns the profiling slot for a join step, nil-safe.
func (sh *bgpShared) stepStat(depth int) *profStage {
	if sh.stepStats == nil {
		return nil
	}
	return sh.stepStats[depth]
}

// newShared builds the shared state of a BGP: resolved patterns, join
// order, filter placement, the steps that fuse into sorted
// intersections (unless NestedLoopsOnly asks for index nested loops
// only) and profiling slots. It returns nil when a
// constant term does not occur in the dictionary (the BGP can have no
// solutions).
func (o *bgpOp) newShared(ec *execCtx) *bgpShared {
	rps := o.resolve(ec)
	for _, rp := range rps {
		if rp.missing {
			return nil
		}
	}
	order := orderPatterns(rps, 0)
	filterAt, finalFilters := o.placeFilters(rps, order)
	sh := &bgpShared{
		ec:           ec,
		rps:          rps,
		order:        order,
		filterAt:     filterAt,
		finalFilters: finalFilters,
		inputSeen:    make([]int64, len(order)),
		vars:         o.bound(0),
	}
	if !ec.nestedLoops {
		sh.intersect = planIntersections(ec.view, rps, order)
	}
	sh.rot = o.rotation(rps, order, sh.intersect)
	sh.live = o.liveSets(rps, order, filterAt, finalFilters, sh.rot)
	if ec.prof != nil && o.sid > 0 {
		// Join step i runs under stage id sid+1+i (execution order,
		// matching explain and the profile tree).
		sh.bgpStage = ec.prof.stage(o.sid)
		sh.stepStats = make([]*profStage, len(order))
		for i := range order {
			sh.stepStats[i] = ec.prof.stage(o.sid + 1 + i)
		}
	}
	return sh
}

// placeFilters places each filter at the earliest depth of order where
// its variables are all bound; filters never bound become final
// filters.
func (o *bgpOp) placeFilters(rps []resolvedPattern, order []int) (filterAt [][]*filterOp, final []*filterOp) {
	bound := varset(0)
	filterAt = make([][]*filterOp, len(order)+1)
	placed := make([]bool, len(o.filters))
	for step, oi := range order {
		bound |= rps[oi].qp.vars()
		for fi, f := range o.filters {
			if !placed[fi] && f.need&^bound == 0 {
				filterAt[step+1] = append(filterAt[step+1], f)
				placed[fi] = true
			}
		}
	}
	for fi, f := range o.filters {
		if !placed[fi] {
			final = append(final, f)
		}
	}
	return filterAt, final
}

// liveSets returns, for a BGP in count mode, the variables read at or
// after each depth of order (bgpShared.live); nil otherwise. The
// rotation's rule reads its three variables at its last depth.
func (o *bgpOp) liveSets(rps []resolvedPattern, order []int, filterAt [][]*filterOp, final []*filterOp, rot *rotation) []varset {
	if !o.count {
		return nil
	}
	live := make([]varset, len(order)+1)
	l := o.countLive
	for _, f := range final {
		l |= f.need
	}
	for k := len(order); k >= 0; k-- {
		for _, f := range filterAt[k] {
			l |= f.need
		}
		if rot != nil && k == rot.last {
			l |= rot.vars
		}
		live[k] = l
		if k > 0 {
			l |= rps[order[k-1]].qp.vars()
		}
	}
	return live
}

// reset readies the state for a run: it zeroes the input counters.
func (sh *bgpShared) reset() {
	clear(sh.inputSeen)
}

// foldStepStats folds the per-step input counters into the profile
// once per run.
func (sh *bgpShared) foldStepStats() {
	if sh.stepStats == nil {
		return
	}
	for i := range sh.order {
		if st := sh.stepStats[i]; st != nil {
			st.rowsIn += sh.inputSeen[i]
		}
	}
}

// ---------------------------------------------------------------------
// Filter, Bind, Values
// ---------------------------------------------------------------------

// filterOp is one FILTER of a BGP (compiler.group), evaluated at the
// earliest join depth where need is bound.
type filterOp struct {
	cond compiledExpr
	need varset
}

type bindOp struct {
	opStage
	expr compiledExpr
	slot int
}

func (o *bindOp) bound(before varset) varset { return before.with(o.slot) }

func (o *bindOp) apply(ec *execCtx, in batchSource) batchSource {
	return perRow(in, []int{o.slot}, func(b binding, w *rowWriter) bool {
		// Expression errors leave the variable unbound.
		if t, err := o.expr.eval(ec, b); err == nil {
			b[o.slot] = ec.intern(t)
		}
		return w.write(b)
	})
}

type valuesOp struct {
	opStage
	slots []int
	rows  [][]rdf.Term
}

func (o *valuesOp) bound(before varset) varset {
	v := before
	for _, s := range o.slots {
		v = v.with(s)
	}
	return v
}

func (o *valuesOp) apply(ec *execCtx, in batchSource) batchSource {
	// Row terms resolve once per query.
	ids := make([][]store.ID, len(o.rows))
	for i, row := range o.rows {
		ids[i] = make([]store.ID, len(row))
		for j, t := range row {
			if !t.IsZero() { // UNDEF stays NoID
				ids[i][j] = ec.intern(t)
			}
		}
	}
	return perRow(in, o.slots, func(b binding, w *rowWriter) bool {
		return joinRows(b, o.slots, ids, w)
	})
}

// joinRows writes b joined with each compatible row of rows, whose
// cells hold the values of slots (NoID = unbound, which joins with
// anything) — the join of VALUES and of a sub-select's results.
func joinRows(b binding, slots []int, rows [][]store.ID, w *rowWriter) bool {
	var undo [maxVars]int
	for _, row := range rows {
		n, ok := 0, true
		for j, slot := range slots {
			v := row[j]
			if v == store.NoID {
				continue
			}
			if b[slot] == store.NoID {
				b[slot] = v
				undo[n] = slot
				n++
			} else if b[slot] != v {
				ok = false
				break
			}
		}
		cont := !ok || w.write(b)
		for _, s := range undo[:n] {
			b[s] = store.NoID
		}
		if !cont {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Union, Optional, Minus
// ---------------------------------------------------------------------

type unionOp struct {
	opStage
	branches [][]op
}

func (o *unionOp) bound(before varset) varset {
	// Only vars bound in EVERY branch are guaranteed.
	var all varset
	for i, br := range o.branches {
		v := pipelineVars(br)
		if i == 0 {
			all = v
		} else {
			all &= v
		}
	}
	return before | all
}

func (o *unionOp) apply(ec *execCtx, in batchSource) batchSource {
	var f feed
	branches := make([]batchSource, len(o.branches))
	for i, br := range o.branches {
		branches[i] = runPipeline(ec, br, f.source)
	}
	// Per input row, each branch runs to exhaustion in branch order; its
	// batches go downstream as they are. The callbacks are built once: a
	// union nested in another operator runs once per outer row.
	var yield func(*colBatch) bool
	var stopped bool
	var innerErr error
	pass := func(out *colBatch) bool {
		stopped = !yield(out)
		return !stopped
	}
	rows := rowReader(func(b binding) bool {
		f.cb.base = b
		for _, br := range branches {
			if innerErr = br(pass); innerErr != nil || stopped {
				return false
			}
		}
		return true
	})
	return func(y func(*colBatch) bool) error {
		yield, stopped, innerErr = y, false, nil
		err := in(rows)
		return firstErr(innerErr, err)
	}
}

// firstErr returns the error of an inner pipeline run from inside an
// outer one, else the outer one's.
func firstErr(inner, outer error) error {
	if inner != nil {
		return inner
	}
	return outer
}

type optionalOp struct {
	opStage
	inner     []op
	innerVars varset
}

func (o *optionalOp) bound(before varset) varset { return before }

func (o *optionalOp) apply(ec *execCtx, in batchSource) batchSource {
	var f feed
	inner := runPipeline(ec, o.inner, f.source)
	// Per input row, the inner pipeline's batches go downstream as they
	// are; a row they do not extend is written through w, which hands
	// its rows on before any inner batch, keeping row order.
	w := &rowWriter{}
	var row binding
	var yield func(*colBatch) bool
	var matched, stopped bool
	var innerErr error
	pass := func(out *colBatch) bool {
		if !matched {
			matched = true
			stopped = !w.flush()
		}
		stopped = stopped || !yield(out)
		return !stopped
	}
	rows := func(cb *colBatch) bool {
		if row == nil {
			row = make(binding, len(cb.base))
		}
		w.start(cb)
		for i := 0; i < cb.n; i++ {
			cb.materialize(i, row)
			f.cb.base = row
			matched = false
			if innerErr = inner(pass); innerErr != nil || stopped {
				return false
			}
			if !matched && !w.write(row) {
				return false
			}
		}
		return w.flush()
	}
	return func(y func(*colBatch) bool) error {
		yield, w.yield, stopped, innerErr = y, y, false, nil
		err := in(rows)
		return firstErr(innerErr, err)
	}
}

type minusOp struct {
	opStage
	inner     []op
	innerVars varset
}

func (o *minusOp) bound(before varset) varset { return before }

func (o *minusOp) apply(ec *execCtx, in batchSource) batchSource {
	var f feed
	inner := runPipeline(ec, o.inner, f.source)
	shared := sortedSlots(o.innerVars)
	// A selection: the rows the inner pipeline matches are compacted out
	// of the input batch in place.
	var row binding
	var yield func(*colBatch) bool
	var found bool
	var innerErr error
	probe := func(*colBatch) bool {
		found = true
		return false
	}
	rows := func(cb *colBatch) bool {
		if row == nil {
			row = make(binding, len(cb.base))
		}
		kept := 0
		for i := 0; i < cb.n; i++ {
			cb.materialize(i, row)
			if anyBound(row, shared) {
				f.cb.base = row
				found = false
				if innerErr = inner(probe); innerErr != nil {
					return false
				}
				if found {
					continue
				}
			}
			if kept != i {
				cb.move(kept, i)
			}
			kept++
		}
		cb.n = kept
		return kept == 0 || yield(cb)
	}
	return func(y func(*colBatch) bool) error {
		yield, innerErr = y, nil
		err := in(rows)
		return firstErr(innerErr, err)
	}
}

// anyBound reports whether b binds any of slots: MINUS only removes a
// row whose domain shares a bound variable with the inner pattern's.
func anyBound(b binding, slots []int) bool {
	for _, s := range slots {
		if b[s] != store.NoID {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Sub-select
// ---------------------------------------------------------------------

type subselectOp struct {
	opStage
	plan  *compiled
	outer []int // outer slots for the projected vars
}

func (o *subselectOp) bound(before varset) varset {
	v := before
	for _, s := range o.outer {
		v = v.with(s)
	}
	return v
}

func (o *subselectOp) apply(ec *execCtx, in batchSource) batchSource {
	var rows [][]store.ID
	join := perRow(in, o.outer, func(b binding, w *rowWriter) bool {
		return joinRows(b, o.outer, rows, w)
	})
	return func(yield func(*colBatch) bool) error {
		// Evaluate the sub-select once, independently (SPARQL bottom-up
		// semantics), then join with the input stream. Its rows hold
		// the IDs it projects: a scope shares the query's dictionary
		// and scratch overlay, so an ID means the same term outside.
		var err error
		if rows, err = selectIDs(ec.child(o.plan.vt), o.plan); err != nil {
			return err
		}
		return join(yield)
	}
}

// ---------------------------------------------------------------------
// Select evaluation (grouping, ordering, projection)
// ---------------------------------------------------------------------

// evalSelect runs a compiled select and materializes the projected rows
// as terms (zero Term = unbound). It is the only place a SELECT's IDs
// become terms: sub-selects hand their rows up as IDs (selectIDs).
func evalSelect(ec *execCtx, cp *compiled) ([][]rdf.Term, error) {
	return selectRows(ec, cp, ec.term)
}

// selectIDs is evalSelect with the projected IDs as cells (NoID =
// unbound): a sub-select's rows, which share the query's dictionary.
func selectIDs(ec *execCtx, cp *compiled) ([][]store.ID, error) {
	return selectRows(ec, cp, func(id store.ID) store.ID { return id })
}

// selectRows runs a compiled select and projects its solutions, turning
// each bound cell into a T with cell.
func selectRows[T any](ec *execCtx, cp *compiled, cell func(store.ID) T) ([][]T, error) {
	// LIMIT 0 can never produce a row: short-circuit before touching
	// the pipeline so no scan, guard tick or clone happens at all.
	if cp.limit == 0 {
		return nil, nil
	}
	solutions, err := selectSolutions(ec, cp)
	if err != nil {
		return nil, err
	}
	return projectRows(ec, cp, solutions, cell), nil
}

// selectSolutions runs a compiled select's pipeline, grouping, extended
// projection and ORDER BY, returning its solutions in result order.
//
// Aggregating queries are evaluated streaming: solutions are folded into
// group accumulators as they are produced, never materialized. Under a
// COUNT the BGP does not even produce them one by one: the paper's
// EQ11d/e path counts (hundreds of millions of paths at full scale)
// fold a weighted frontier per hop (DESIGN.md §22).
func selectSolutions(ec *execCtx, cp *compiled) ([]binding, error) {
	width := len(cp.vt.names)
	bs := runPipeline(ec, cp.pipeline, unitSource(width))

	var solutions []binding
	if cp.grouping {
		gst := ec.profStage(cp.groupSid)
		start := profNow(gst)
		acc := newGroupAcc(ec, cp)
		if err := acc.addBatches(bs); err != nil {
			return nil, err
		}
		solutions = acc.finish()
		if gst != nil {
			gst.groups += int64(len(acc.groups))
		}
		profDone(gst, start, len(solutions))
	} else {
		// Plain SELECT with LIMIT and no ORDER BY / DISTINCT /
		// projection expressions can stop as soon as enough rows exist.
		budget := -1
		if cp.limit >= 0 && len(cp.orderBy) == 0 && !cp.distinct && !hasProjExprs(cp) {
			budget = cp.offset + cp.limit
		}
		// Each solution is materialized, then capped: MaxRows bounds what
		// the query may materialize, before DISTINCT or OFFSET/LIMIT
		// shrink it — a resource cap, not a result-shaping knob — and
		// budget stops a plain LIMIT query as soon as enough rows exist
		// (mid-batch included).
		err := finishGuard(ec, bs(func(cb *colBatch) bool {
			for i := 0; i < cb.n; i++ {
				b := make(binding, width)
				cb.materialize(i, b)
				solutions = append(solutions, b)
				if !ec.guard.CheckRows(len(solutions)) {
					return false
				}
				if budget >= 0 && len(solutions) >= budget {
					return false
				}
			}
			return true
		}))
		if err != nil {
			return nil, err
		}
	}

	// Extended projection (expressions with AS).
	for _, pr := range cp.projection {
		if pr.expr == nil {
			continue
		}
		if _, isSlot := pr.expr.(*exprSlot); isSlot && cp.grouping {
			continue // aggregate already materialized into the slot
		}
		for _, b := range solutions {
			t, err := pr.expr.eval(ec, b)
			if err != nil {
				b[pr.slot] = store.NoID
				continue
			}
			b[pr.slot] = ec.intern(t)
		}
	}

	// ORDER BY.
	if len(cp.orderBy) > 0 {
		sst := ec.profStage(cp.sortSid)
		sortStart := profNow(sst)
		keys := make([][]rdf.Term, len(solutions))
		for i, b := range solutions {
			row := make([]rdf.Term, len(cp.orderBy))
			for j, ok := range cp.orderBy {
				t, err := ok.expr.eval(ec, b)
				if err == nil {
					row[j] = t
				}
			}
			keys[i] = row
		}
		idx := make([]int, len(solutions))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, c int) bool {
			ka, kc := keys[idx[a]], keys[idx[c]]
			for j, ok := range cp.orderBy {
				cmp := orderCompare(ka[j], kc[j])
				if ok.desc {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		sorted := make([]binding, len(solutions))
		for i, ix := range idx {
			sorted[i] = solutions[ix]
		}
		solutions = sorted
		profDone(sst, sortStart, len(solutions))
	}
	return solutions, nil
}

// projectRows projects solutions onto cp's projection, converting each
// bound cell with cell (zero T = unbound), then applies DISTINCT and
// OFFSET/LIMIT. DISTINCT compares the rows' terms, as the results show
// them.
func projectRows[T any](ec *execCtx, cp *compiled, solutions []binding, cell func(store.ID) T) [][]T {
	pst := ec.profStage(cp.projSid)
	projStart := profNow(pst)
	pw := len(cp.projection)
	slab := make([]T, len(solutions)*pw)
	rows := make([][]T, 0, len(solutions))
	var seen map[string]struct{}
	var key []byte
	if cp.distinct {
		seen = make(map[string]struct{})
	}
	for _, b := range solutions {
		n := len(rows)
		row := slab[n*pw : (n+1)*pw : (n+1)*pw]
		var zero T
		for j, pr := range cp.projection {
			row[j] = zero
			if pr.slot < len(b) && b[pr.slot] != store.NoID {
				row[j] = cell(b[pr.slot])
			}
		}
		if cp.distinct {
			key = key[:0]
			for _, pr := range cp.projection {
				var t rdf.Term
				if pr.slot < len(b) && b[pr.slot] != store.NoID {
					t = ec.term(b[pr.slot])
				}
				key = append(append(key, t.String()...), 0)
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
		}
		rows = append(rows, row)
	}

	// OFFSET / LIMIT.
	if cp.offset > 0 {
		if cp.offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[cp.offset:]
		}
	}
	if cp.limit >= 0 && cp.limit < len(rows) {
		rows = rows[:cp.limit]
	}
	profDone(pst, projStart, len(rows))
	return rows
}

func hasProjExprs(cp *compiled) bool {
	for _, pr := range cp.projection {
		if pr.expr != nil {
			return true
		}
	}
	return false
}

// aggState accumulates one aggregate within one group.
type aggState struct {
	count   int64
	sum     rdf.Value
	sumOK   bool
	min     rdf.Term
	max     rdf.Term
	sample  rdf.Term
	concat  []string
	seen    map[string]struct{} // DISTINCT
	started bool
}

// groupData is one group's representative binding and aggregate states.
type groupData struct {
	rep    binding
	states []aggState
}

// groupKey is how groupAcc keys its groups; EXPLAIN prints it.
type groupKey uint8

const (
	keyNone groupKey = iota // no GROUP BY: the one implicit group
	keyID                   // one plain variable: its ID
	keyTerm                 // several keys or an expression: strings
)

func (k groupKey) String() string { return [...]string{"none", "id", "term"}[k] }

// groupKeyOf classifies a plan's GROUP BY keys, with the key slot of an
// id key.
func groupKeyOf(cp *compiled) (groupKey, int) {
	switch len(cp.groupBy) {
	case 0:
		return keyNone, 0
	case 1:
		if vs, isVar := cp.groupBy[0].(*exprSlot); isVar {
			return keyID, vs.slot
		}
	}
	return keyTerm, 0
}

// groupAcc folds solutions into per-group aggregate states, row by row
// (add) or, for plain COUNTs, straight from a batch's columns
// (foldCounts); both create groups in first-seen order. Groups live in a slice in creation order; a key finds its
// group's index through a map keyed by the group variable's ID (keyID)
// or by strings (keyTerm). Only keyTerm evaluates expressions or reads
// a term.
type groupAcc struct {
	ec     *execCtx
	cp     *compiled
	kind   groupKey
	slot   int // key slot of an id key
	groups []*groupData
	byID   map[store.ID]int32
	byKey  map[string]int32
	keyBuf []byte

	// The group the last row fell into, by key ID: rows of one key
	// often arrive together (a scan sorted by the group variable).
	last   int32
	lastID store.ID

	// counts memoizes finish's COUNT results: thousands of groups share
	// a few distinct counts, each interned once.
	counts map[int64]store.ID

	// args is foldCounts' per-batch view of the COUNT arguments,
	// reused across batches.
	args []countArg
}

func newGroupAcc(ec *execCtx, cp *compiled) *groupAcc {
	acc := &groupAcc{ec: ec, cp: cp, last: -1}
	acc.kind, acc.slot = groupKeyOf(cp)
	switch acc.kind {
	case keyNone:
		// The implicit group exists even over no solutions; path
		// counts like EQ11e fold their weighted rows into it without a
		// key lookup.
		acc.groups = []*groupData{acc.newGroup(nil)}
	case keyID:
		acc.byID = make(map[store.ID]int32)
	default:
		acc.byKey = make(map[string]int32)
	}
	return acc
}

func (acc *groupAcc) newGroup(b binding) *groupData {
	// Representative keeps only GROUP BY variables.
	rep := make(binding, len(acc.cp.vt.names))
	for _, ge := range acc.cp.groupBy {
		if vs, isVar := ge.(*exprSlot); isVar {
			rep[vs.slot] = b[vs.slot]
		}
	}
	return &groupData{rep: rep, states: make([]aggState, len(acc.cp.aggregates))}
}

// create appends a new group for the solution b, or reports false when
// the guard's row cap latches (new-group creation counts against
// MaxRows).
func (acc *groupAcc) create(b binding) (int32, bool) {
	if !acc.ec.guard.CheckRows(len(acc.groups) + 1) {
		return 0, false
	}
	acc.groups = append(acc.groups, acc.newGroup(b))
	return int32(len(acc.groups) - 1), true
}

// lookupID returns the group of key ID id, nil when there is none yet.
func (acc *groupAcc) lookupID(id store.ID) *groupData {
	if acc.last >= 0 && id == acc.lastID {
		return acc.groups[acc.last]
	}
	i, ok := acc.byID[id]
	if !ok {
		return nil
	}
	acc.last, acc.lastID = i, id
	return acc.groups[i]
}

// idGroup returns the group of key ID id, creating it from b.
func (acc *groupAcc) idGroup(id store.ID, b binding) *groupData {
	if gd := acc.lookupID(id); gd != nil {
		return gd
	}
	i, ok := acc.create(b)
	if !ok {
		return nil
	}
	acc.byID[id] = i
	acc.last, acc.lastID = i, id
	return acc.groups[i]
}

// bufGroup returns the group of the key in keyBuf, creating it from b.
func (acc *groupAcc) bufGroup(b binding) *groupData {
	i, ok := acc.byKey[string(acc.keyBuf)]
	if !ok {
		if i, ok = acc.create(b); !ok {
			return nil
		}
		acc.byKey[string(acc.keyBuf)] = i
	}
	return acc.groups[i]
}

// group returns the group of solution b, nil when creating it tripped
// the row cap.
func (acc *groupAcc) group(b binding) *groupData {
	switch acc.kind {
	case keyNone:
		return acc.groups[0]
	case keyID:
		return acc.idGroup(b[acc.slot], b)
	}
	acc.keyBuf = acc.keyBuf[:0]
	for _, ge := range acc.cp.groupBy {
		// Group keys of plain variables hash by ID, not lexical form.
		if vs, isVar := ge.(*exprSlot); isVar {
			acc.keyBuf = strconv.AppendUint(append(acc.keyBuf, '#'), uint64(b[vs.slot]), 10)
		} else if t, err := ge.eval(acc.ec, b); err == nil {
			acc.keyBuf = append(acc.keyBuf, t.String()...)
		}
		acc.keyBuf = append(acc.keyBuf, 0)
	}
	return acc.bufGroup(b)
}

// add folds one solution into its group, returning false when the
// guard's row cap latches. The binding is only read during the call, so
// callers may reuse it.
func (acc *groupAcc) add(b binding) bool {
	gd := acc.group(b)
	if gd == nil {
		return false
	}
	ec := acc.ec
	for i, agg := range acc.cp.aggregates {
		st := &gd.states[i]
		// Fast path: COUNT(?v) only needs boundness, no term.
		if agg.fn == "COUNT" && !agg.distinct {
			if agg.arg == nil {
				st.count++
				continue
			}
			if vs, isVar := agg.arg.(*exprSlot); isVar {
				if vs.slot < len(b) && b[vs.slot] != store.NoID {
					st.count++
				}
				continue
			}
		}
		var val rdf.Term
		if agg.arg != nil {
			t, err := agg.arg.eval(ec, b)
			if err != nil {
				continue // error values do not contribute
			}
			val = t
		}
		if agg.distinct {
			if st.seen == nil {
				st.seen = make(map[string]struct{})
			}
			k := val.String()
			if _, dup := st.seen[k]; dup {
				continue
			}
			st.seen[k] = struct{}{}
		}
		accumulate(st, agg, val)
	}
	return true
}

// finish materializes the groups: aggregate results interned into the
// representative bindings, HAVING applied, first-seen group order.
func (acc *groupAcc) finish() []binding {
	ec, cp := acc.ec, acc.cp
	out := make([]binding, 0, len(acc.groups))
	for _, gd := range acc.groups {
		for i, agg := range cp.aggregates {
			if agg.fn == "COUNT" {
				gd.rep[agg.slot] = acc.countID(gd.states[i].count)
				continue
			}
			if t, ok := finishAgg(&gd.states[i], agg); ok {
				gd.rep[agg.slot] = ec.intern(t)
			}
		}
		keep := true
		for _, h := range cp.having {
			v, err := evalBool(ec, h, gd.rep)
			if err != nil || !v {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, gd.rep)
		}
	}
	return out
}

// countID returns the interned integer n, interning each distinct count
// once per accumulator.
func (acc *groupAcc) countID(n int64) store.ID {
	id, ok := acc.counts[n]
	if !ok {
		if acc.counts == nil {
			acc.counts = make(map[int64]store.ID)
		}
		id = acc.ec.intern(rdf.NewInteger(n))
		acc.counts[n] = id
	}
	return id
}

func accumulate(st *aggState, agg compiledAgg, val rdf.Term) {
	switch agg.fn {
	case "COUNT":
		st.count++
	case "SUM", "AVG":
		v, ok := rdf.LiteralValue(val)
		if !ok || !v.IsNumeric() {
			return
		}
		st.count++
		if !st.started {
			st.sum, st.started, st.sumOK = v, true, true
			return
		}
		kind := rdf.PromoteNumeric(st.sum.Kind, v.Kind)
		if kind == rdf.ValueInteger {
			st.sum = rdf.Value{Kind: kind, Int: st.sum.Int + v.Int}
		} else {
			st.sum = rdf.Value{Kind: kind, Flt: st.sum.Float() + v.Float()}
		}
	case "MIN", "MAX":
		if !st.started {
			st.min, st.max, st.started = val, val, true
			return
		}
		if orderCompare(val, st.min) < 0 {
			st.min = val
		}
		if orderCompare(val, st.max) > 0 {
			st.max = val
		}
	case "SAMPLE":
		if !st.started {
			st.sample, st.started = val, true
		}
	case "GROUP_CONCAT":
		st.concat = append(st.concat, val.Value)
	}
}

func finishAgg(st *aggState, agg compiledAgg) (rdf.Term, bool) {
	switch agg.fn {
	case "COUNT":
		return rdf.NewInteger(st.count), true
	case "SUM":
		if !st.sumOK {
			return rdf.NewInteger(0), true
		}
		return rdf.NumericLiteral(st.sum), true
	case "AVG":
		if st.count == 0 {
			return rdf.NewInteger(0), true
		}
		return rdf.NumericLiteral(rdf.Value{Kind: rdf.ValueDouble, Flt: st.sum.Float() / float64(st.count)}), true
	case "MIN":
		return st.min, st.started
	case "MAX":
		return st.max, st.started
	case "SAMPLE":
		return st.sample, st.started
	case "GROUP_CONCAT":
		return rdf.NewLiteral(strings.Join(st.concat, " ")), true
	default:
		return rdf.Term{}, false
	}
}
