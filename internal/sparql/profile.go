package sparql

// Per-operator execution profiling (DESIGN.md §11).
//
// A compiled plan is numbered once (numberStages): every operator —
// and, inside a BGP, every join step — owns one slot in a flat,
// preallocated array of counters (queryProfile). Profiling is opt-in
// per query: when execCtx.prof is nil the executor pays a single
// predictable branch per site and allocates nothing, so the bench
// numbers are unaffected. When enabled, the counters record actual
// rows in/out, guard ticks (rows produced by scans and intersections —
// exactly the events the query guard charges against Budget.MaxWork)
// and inclusive wall time. A query runs on one goroutine, so the
// counters are plain fields.
//
// After execution, buildProfile walks the static plan and pairs each
// operator with its counters, producing the ProfileNode tree that
// backs Engine.QueryProfiledContext, EXPLAIN ANALYZE text rendering, and the
// slow-query log's JSON profile attachment. EXPLAIN renders the same
// tree without counters: the plan is described in one place.

import (
	"fmt"
	"strings"
	"time"
)

// profStage is one operator's (or join step's) slot of live counters.
type profStage struct {
	invocations int64 // times the operator's source was driven
	rowsIn      int64 // bindings entering the operator / step
	rowsOut     int64 // bindings emitted downstream
	ticks       int64 // guard ticks (scanned rows)
	wall        int64 // inclusive nanoseconds across invocations
	groups      int64 // groups a GroupAggregate created
	collapsed   int64 // rows a step folded into an earlier row (§22)

	// A fused binder's input rows by intersection kernel (§20): rows
	// that marked a side's range, rows that walked the other side
	// probing the marks, and rows that galloped; and the group's seeks
	// that a seeker's directory located. summed counts the input rows
	// that added up their matches instead of emitting them (§22).
	marked, walked, galloped, summed, dir int64
}

// queryProfile is the per-query counter array, indexed by stage id
// (slot 0 is unused: sid 0 marks unnumbered operators).
type queryProfile struct {
	stages []profStage
}

func newQueryProfile(nstages int) *queryProfile {
	return &queryProfile{stages: make([]profStage, nstages+1)}
}

// stage returns the slot for a stage id, or nil when the id is outside
// the numbered plan (EXISTS sub-pipelines run with sid 0).
func (p *queryProfile) stage(sid int) *profStage {
	if p == nil || sid <= 0 || sid >= len(p.stages) {
		return nil
	}
	return &p.stages[sid]
}

// instrument wraps an operator's batch source with row and wall-time
// accounting: rows-out counts rows, not batches. Wall time is inclusive
// — it covers upstream production and downstream consumption of the
// stream, like the actual times of a conventional EXPLAIN ANALYZE — and
// accumulates across invocations (operators nested under
// UNION/OPTIONAL re-run per outer binding).
func (p *queryProfile) instrument(sid int, src batchSource) batchSource {
	st := p.stage(sid)
	if st == nil {
		return src
	}
	return func(yield func(*colBatch) bool) error {
		st.invocations++
		start := time.Now()
		var rows int64
		err := src(func(cb *colBatch) bool {
			rows += int64(cb.n)
			return yield(cb)
		})
		st.rowsOut += rows
		st.wall += int64(time.Since(start))
		return err
	}
}

// addTicks / addRows / addCollapsed fold a batch of locally-counted
// events into the slot. The executor's hot loops count into plain
// locals and flush once per scan. All are nil-safe.
func (st *profStage) addTicks(n int64) {
	if st != nil {
		st.ticks += n
	}
}

func (st *profStage) addRows(n int64) {
	if st != nil {
		st.rowsOut += n
	}
}

func (st *profStage) addCollapsed(n int64) {
	if st != nil {
		st.collapsed += n
	}
}

func (st *profStage) addKernels(marked, walked, galloped, summed, dir int64) {
	if st != nil {
		st.marked += marked
		st.walked += walked
		st.galloped += galloped
		st.summed += summed
		st.dir += dir
	}
}

// profStage is a convenience lookup through the context.
func (ec *execCtx) profStage(sid int) *profStage {
	if ec.prof == nil {
		return nil
	}
	return ec.prof.stage(sid)
}

// profNow / profDone bracket a tail phase (grouping, ordering,
// projection) that runs as a materialized pass rather than a stream.
func profNow(st *profStage) time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

func profDone(st *profStage, start time.Time, rows int) {
	if st == nil {
		return
	}
	st.invocations++
	st.rowsOut += int64(rows)
	st.wall += int64(time.Since(start))
}

// ---------------------------------------------------------------------
// The materialized profile tree.
// ---------------------------------------------------------------------

// Profile is the executed-plan profile of one SELECT query: the static
// plan annotated with per-operator actuals. It is returned by
// Engine.QueryProfiledContext, rendered by Render for EXPLAIN ANALYZE, and
// attached as JSON to slow-query log records. EXPLAIN renders the same
// tree before anything runs, without the actuals.
type Profile struct {
	Dataset   string         `json:"dataset"`
	WallNanos int64          `json:"wall_ns"`
	Rows      int            `json:"rows"`
	Plan      []*ProfileNode `json:"plan"`
}

// ProfileNode is one operator (or BGP join step, or tail phase) of the
// profile tree. Label, Index, Access, Est, Intersect, GroupKey,
// Weighted, Rotation and Collapse describe the plan — a BGP's as
// planned for an input binding none of its variables — and the rest
// are actuals.
type ProfileNode struct {
	Label       string         `json:"label"`
	Index       string         `json:"index,omitempty"`
	Access      string         `json:"access,omitempty"`
	Est         int64          `json:"est,omitempty"`
	Invocations int64          `json:"invocations,omitempty"`
	RowsIn      int64          `json:"rows_in"`
	RowsOut     int64          `json:"rows_out"`
	GuardTicks  int64          `json:"guard_ticks,omitempty"`
	WallNanos   int64          `json:"wall_ns"`
	Intersect   bool           `json:"intersect,omitempty"` // a step fused into a sorted intersection
	GroupKey    string         `json:"group_key,omitempty"` // a GroupAggregate's key kind
	Groups      int64          `json:"groups,omitempty"`
	Weighted    bool           `json:"weighted,omitempty"`  // a BGP that counts rather than enumerates
	Rotation    int            `json:"rotation,omitempty"`  // ... one rotation of each solution's orbit of this size
	Collapse    string         `json:"collapse,omitempty"`  // the variables a step's output drops
	Collapsed   int64          `json:"collapsed,omitempty"` // rows the step folded into earlier rows
	Marked      int64          `json:"marked,omitempty"`    // a fused binder's input rows that marked a range
	Walked      int64          `json:"walked,omitempty"`    // ... that walked a side probing the marks
	Galloped    int64          `json:"galloped,omitempty"`  // ... that galloped (leapfrog)
	Summed      int64          `json:"summed,omitempty"`    // ... that summed their matches (count mode)
	Dir         int64          `json:"dir,omitempty"`       // the group's seeks a seeker's directory located
	Children    []*ProfileNode `json:"children,omitempty"`
}

// load fills a node's counters from a stage slot (nil-safe).
func (n *ProfileNode) load(st *profStage) *ProfileNode {
	if st == nil {
		return n
	}
	n.Invocations = st.invocations
	n.RowsIn = st.rowsIn
	n.RowsOut = st.rowsOut
	n.GuardTicks = st.ticks
	n.WallNanos = st.wall
	n.Groups = st.groups
	n.Collapsed = st.collapsed
	n.Marked = st.marked
	n.Walked = st.walked
	n.Galloped = st.galloped
	n.Summed = st.summed
	n.Dir = st.dir
	return n
}

// buildProfile pairs the numbered plan with the collected counters.
func buildProfile(ec *execCtx, cp *compiled, model string, wall time.Duration, rows int) *Profile {
	p := &Profile{
		Dataset:   datasetName(model),
		WallNanos: int64(wall),
		Rows:      rows,
	}
	p.Plan = profilePlan(ec, cp)
	return p
}

// profilePlan builds nodes for a plan's pipeline plus its tail phases
// (grouping, ordering, projection).
func profilePlan(ec *execCtx, cp *compiled) []*ProfileNode {
	nodes := profileOps(ec, cp.pipeline)
	// Tail phases consume the last pipeline stage's output.
	lastOut := int64(0)
	if len(nodes) > 0 {
		lastOut = nodes[len(nodes)-1].RowsOut
	}
	if cp.grouping {
		kind, _ := groupKeyOf(cp)
		n := (&ProfileNode{
			Label:    fmt.Sprintf("GroupAggregate (%d keys, %d aggregates)", len(cp.groupBy), len(cp.aggregates)),
			GroupKey: kind.String(),
		}).load(ec.profStage(cp.groupSid))
		n.RowsIn = lastOut
		lastOut = n.RowsOut
		nodes = append(nodes, n)
	}
	if len(cp.orderBy) > 0 {
		n := (&ProfileNode{
			Label: fmt.Sprintf("OrderBy (%d keys)", len(cp.orderBy)),
		}).load(ec.profStage(cp.sortSid))
		n.RowsIn = lastOut
		lastOut = n.RowsOut
		nodes = append(nodes, n)
	}
	label := "Project"
	if cp.distinct {
		label = "Project (distinct)"
	}
	if cp.offset > 0 || cp.limit >= 0 {
		label += fmt.Sprintf(" (offset=%d limit=%d)", cp.offset, cp.limit)
	}
	n := (&ProfileNode{Label: label}).load(ec.profStage(cp.projSid))
	n.RowsIn = lastOut
	nodes = append(nodes, n)
	return nodes
}

// profileOps builds one node per pipeline operator, chaining rows-in
// from the previous operator's rows-out where the operator does not
// count its own input.
func profileOps(ec *execCtx, ops []op) []*ProfileNode {
	nodes := make([]*ProfileNode, 0, len(ops))
	for _, o := range ops {
		var n *ProfileNode
		switch x := o.(type) {
		case *bgpOp:
			n = profileBGP(ec, x)
		case *bindOp:
			n = &ProfileNode{Label: "Bind ?" + ec.vt.names[x.slot]}
		case *valuesOp:
			n = &ProfileNode{Label: fmt.Sprintf("Values (%d rows)", len(x.rows))}
		case *unionOp:
			n = &ProfileNode{Label: fmt.Sprintf("Union (%d branches)", len(x.branches))}
			for _, br := range x.branches {
				n.Children = append(n.Children, profileOps(ec, br)...)
			}
		case *optionalOp:
			n = &ProfileNode{Label: "Optional", Children: profileOps(ec, x.inner)}
		case *minusOp:
			n = &ProfileNode{Label: "Minus", Children: profileOps(ec, x.inner)}
		case *subselectOp:
			n = &ProfileNode{Label: "SubSelect (join on projected vars)", Children: profilePlan(ec.child(x.plan.vt), x.plan)}
		case *pathOp:
			kind := "*"
			switch {
			case x.min == 1 && x.max == 0:
				kind = "+"
			case x.max == 1:
				kind = "?"
			}
			n = &ProfileNode{Label: fmt.Sprintf("PathClosure (%s, BFS, distinct nodes)", kind)}
		}
		n.load(ec.profStage(o.stageID()))
		if n.RowsIn == 0 && len(nodes) > 0 {
			n.RowsIn = nodes[len(nodes)-1].RowsOut
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// profileBGP builds the BGP node with one child per join step, in the
// deterministic execution order. It recomputes the join order, per-step
// index choice, fused intersection groups and collapsing steps exactly
// as execution does for an input binding that binds none of the BGP's
// variables.
func profileBGP(ec *execCtx, o *bgpOp) *ProfileNode {
	n := (&ProfileNode{Label: fmt.Sprintf("BGP (%d patterns)", len(o.patterns)), Weighted: o.count}).load(ec.profStage(o.sid))
	rps := o.resolve(ec)
	order := orderPatterns(rps, 0)
	var plans []*intersectPlan
	if !ec.nestedLoops {
		plans = planIntersections(ec.view, rps, order)
	}
	rot := o.rotation(rps, order, plans)
	if rot != nil {
		n.Rotation = 3
	}
	filterAt, final := o.placeFilters(rps, order)
	live := o.liveSets(rps, order, filterAt, final, rot)
	bound := varset(0)
	var group []seekSide // the rest of the current fused group
	for d, oi := range order {
		rp := &rps[oi]
		binder := plans != nil && plans[d] != nil
		if binder {
			group = plans[d].sides
		}
		// A fused group's rows leave from its binder, past its checkers.
		var dropped []string
		if binder || len(group) == 0 {
			_, vars := collapseKeys(live, sortedSlots(bound|rp.qp.vars()), d, d+max(len(group), 1))
			for _, s := range sortedSlots(vars) {
				dropped = append(dropped, "?"+ec.vt.names[s])
			}
		}
		collapse := ""
		if dropped != nil {
			collapse = "[" + strings.Join(dropped, " ") + "]"
		}
		boundCols := rp.boundCols(nil, bound)
		ix := ec.view.ChooseIndexByBound(boundCols)
		if len(group) > 0 {
			ix = group[0].ix // a checker seeks by its bound columns, then the group's variable
		}
		cols := make([]string, len(boundCols))
		for j, c := range boundCols {
			cols[j] = c.String()
		}
		access := "full index scan"
		if len(boundCols) > 0 {
			access = "index range scan"
		}
		n.Children = append(n.Children, (&ProfileNode{
			Label:     fmt.Sprintf("%d: %s  [%s bound]", d+1, rp.qp.text, strings.Join(cols, ",")),
			Index:     ix.Perm().String(),
			Access:    access,
			Est:       int64(rp.estConst),
			Collapse:  collapse,
			Intersect: len(group) > 0,
		}).load(ec.profStage(o.sid+1+d)))
		if len(group) > 0 {
			group = group[1:]
		}
		bound |= rp.qp.vars()
	}
	for range o.filters {
		n.Children = append(n.Children, &ProfileNode{Label: "filter (pushed to earliest bound position)"})
	}
	return n
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE text rendering.
// ---------------------------------------------------------------------

// Render formats the profile as EXPLAIN ANALYZE text: the plan EXPLAIN
// prints, with an "(actual: ...)" annotation per operator.
func (p *Profile) Render() string { return p.render(true) }

// render formats the plan tree, one line per node: its label and plan
// annotations, then, when actual is set, its actuals.
func (p *Profile) render(actual bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Select (dataset=%s)", p.Dataset)
	if actual {
		fmt.Fprintf(&sb, "  (actual: rows=%d wall=%s)", p.Rows, time.Duration(p.WallNanos).Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	renderNodes(&sb, p.Plan, 1, actual)
	return sb.String()
}

func renderNodes(sb *strings.Builder, nodes []*ProfileNode, indent int, actual bool) {
	for _, n := range nodes {
		sb.WriteString(strings.Repeat("  ", indent))
		sb.WriteString(n.Label)
		if n.Index != "" {
			fmt.Fprintf(sb, " index=%s (%s) est=%d", n.Index, n.Access, n.Est)
		}
		if n.Collapse != "" {
			fmt.Fprintf(sb, " collapse=%s", n.Collapse)
		}
		if n.Intersect {
			sb.WriteString(" join=intersect")
		}
		if n.Weighted {
			sb.WriteString(" count=weighted")
		}
		if n.Rotation > 0 {
			fmt.Fprintf(sb, " rotation=%d", n.Rotation)
		}
		if n.GroupKey != "" {
			fmt.Fprintf(sb, " key=%s", n.GroupKey)
		}
		if actual {
			renderActuals(sb, n)
		}
		sb.WriteByte('\n')
		renderNodes(sb, n.Children, indent+1, actual)
	}
}

// renderActuals appends a node's "(actual: ...)" annotation.
func renderActuals(sb *strings.Builder, n *ProfileNode) {
	fmt.Fprintf(sb, "  (actual: in=%d", n.RowsIn)
	if n.Collapsed > 0 {
		fmt.Fprintf(sb, " collapsed=%d", n.Collapsed)
	}
	fmt.Fprintf(sb, " out=%d", n.RowsOut)
	if n.GuardTicks > 0 {
		fmt.Fprintf(sb, " ticks=%d", n.GuardTicks)
	}
	if n.GroupKey != "" {
		fmt.Fprintf(sb, " groups=%d", n.Groups)
	}
	if n.Walked+n.Galloped > 0 {
		fmt.Fprintf(sb, " marked=%d walked=%d galloped=%d dir=%d", n.Marked, n.Walked, n.Galloped, n.Dir)
		if n.Summed > 0 {
			fmt.Fprintf(sb, " summed=%d", n.Summed)
		}
	}
	if n.Invocations > 1 {
		fmt.Fprintf(sb, " loops=%d", n.Invocations)
	}
	fmt.Fprintf(sb, " wall=%s)", time.Duration(n.WallNanos).Round(time.Microsecond))
}
