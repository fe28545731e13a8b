package sparql

// Per-operator execution profiling (DESIGN.md §11).
//
// A compiled plan is numbered once (numberStages): every operator —
// and, inside a BGP, every join step — owns one slot in a flat,
// preallocated array of counters (queryProfile). Profiling is opt-in
// per query: when execCtx.prof is nil the executor pays a single
// predictable branch per site and allocates nothing, so the bench
// numbers are unaffected. When enabled, the counters record actual
// rows in/out, guard ticks (rows produced by scans and hash probes —
// exactly the events the query guard charges against Budget.MaxWork)
// and inclusive wall time. A query runs on one goroutine, so the
// counters are plain fields.
//
// After execution, buildProfile walks the static plan and pairs each
// operator with its counters, producing the ProfileNode tree that
// backs Engine.QueryProfiled, EXPLAIN ANALYZE text rendering, and the
// slow-query log's JSON profile attachment.

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
	ticks       int64 // guard ticks (scanned + hash-probed rows)
	wall        int64 // inclusive nanoseconds across invocations
	groups      int64 // groups a GroupAggregate created
	collapsed   int64 // rows a step folded into an earlier row (§22)
	hashJoin    bool  // the step switched from NLJ to hash join
	intersect   bool  // the step ran fused into a sorted intersection
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

// instrument wraps an operator's source with row and wall-time
// accounting. Wall time is inclusive — it covers upstream production
// and downstream consumption of the stream, like the actual times of a
// conventional EXPLAIN ANALYZE — and accumulates across invocations
// (operators nested under UNION/OPTIONAL re-run per outer binding).
func (p *queryProfile) instrument(sid int, src source) source {
	st := p.stage(sid)
	if st == nil {
		return src
	}
	return func(yield func(binding) bool) error {
		st.invocations++
		start := time.Now()
		var rows int64
		err := src(func(b binding) bool {
			rows++
			return yield(b)
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
// Engine.QueryProfiled, rendered by Render for EXPLAIN ANALYZE, and
// attached as JSON to slow-query log records.
type Profile struct {
	Dataset   string         `json:"dataset"`
	WallNanos int64          `json:"wall_ns"`
	Rows      int            `json:"rows"`
	Plan      []*ProfileNode `json:"plan"`
}

// ProfileNode is one operator (or BGP join step, or tail phase) of the
// profile tree.
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
	HashJoin    bool           `json:"hash_join,omitempty"`
	Intersect   bool           `json:"intersect,omitempty"`
	Batch       bool           `json:"batch,omitempty"`     // a UNION that ran columnar
	GroupKey    string         `json:"group_key,omitempty"` // a GroupAggregate's key kind
	Groups      int64          `json:"groups,omitempty"`
	Weighted    bool           `json:"weighted,omitempty"`  // a BGP that counts rather than enumerates
	Collapse    string         `json:"collapse,omitempty"`  // the variables a step's output drops
	Collapsed   int64          `json:"collapsed,omitempty"` // rows the step folded into earlier rows
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
	n.HashJoin = st.hashJoin
	n.Intersect = st.intersect
	n.Groups = st.groups
	n.Collapsed = st.collapsed
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
		case *filterOp:
			n = (&ProfileNode{Label: "Filter"}).load(ec.profStage(x.sid))
		case *bindOp:
			n = (&ProfileNode{Label: "Bind ?" + ec.vt.names[x.slot]}).load(ec.profStage(x.sid))
		case *valuesOp:
			n = (&ProfileNode{Label: fmt.Sprintf("Values (%d rows)", len(x.rows))}).load(ec.profStage(x.sid))
		case *unionOp:
			n = (&ProfileNode{Label: fmt.Sprintf("Union (%d branches)", len(x.branches)), Batch: x.batch}).load(ec.profStage(x.sid))
			for _, br := range x.branches {
				n.Children = append(n.Children, profileOps(ec, br)...)
			}
		case *optionalOp:
			n = (&ProfileNode{Label: "Optional"}).load(ec.profStage(x.sid))
			n.Children = profileOps(ec, x.inner)
		case *minusOp:
			n = (&ProfileNode{Label: "Minus"}).load(ec.profStage(x.sid))
			n.Children = profileOps(ec, x.inner)
		case *subselectOp:
			n = (&ProfileNode{Label: "SubSelect (join on projected vars)"}).load(ec.profStage(x.sid))
			n.Children = profilePlan(ec.child(x.plan.vt), x.plan)
		case *pathOp:
			kind := "*"
			switch {
			case x.min == 1 && x.max == 0:
				kind = "+"
			case x.max == 1:
				kind = "?"
			}
			n = (&ProfileNode{Label: fmt.Sprintf("PathClosure (%s, BFS, distinct nodes)", kind)}).load(ec.profStage(x.sid))
		default:
			n = (&ProfileNode{Label: fmt.Sprintf("%T", o)}).load(ec.profStage(o.stageID()))
		}
		if n.RowsIn == 0 && len(nodes) > 0 {
			n.RowsIn = nodes[len(nodes)-1].RowsOut
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// profileBGP builds the BGP node with one child per join step, in the
// deterministic execution order (the same order explain prints).
func profileBGP(ec *execCtx, o *bgpOp) *ProfileNode {
	n := (&ProfileNode{Label: fmt.Sprintf("BGP (%d patterns)", len(o.patterns))}).load(ec.profStage(o.sid))
	n.Weighted = o.count
	for i, d := range bgpStepDescs(ec, o) {
		c := (&ProfileNode{
			Label:    fmt.Sprintf("%d: %s  [%s bound]", i+1, d.text, d.boundCols),
			Index:    d.index,
			Access:   d.access,
			Est:      int64(d.est),
			Collapse: d.collapse,
		}).load(ec.profStage(o.sid + 1 + i))
		n.Children = append(n.Children, c)
	}
	for range o.filters {
		n.Children = append(n.Children, &ProfileNode{Label: "filter (pushed to earliest bound position)"})
	}
	return n
}

// stepDesc is the static description of one BGP join step, shared by
// the textual explain and the profile tree so the two always agree.
type stepDesc struct {
	text      string
	boundCols string
	index     string
	access    string
	est       int
	intersect bool   // fused into a sorted intersection (intersect.go)
	collapse  string // the variables the step's output drops (§22), as "[?a ?b]"
}

// bgpStepDescs recomputes the deterministic join order, per-step index
// choice, fused intersection groups and collapsing steps for a BGP,
// exactly as execution does for an input binding that binds none of its
// variables.
func bgpStepDescs(ec *execCtx, o *bgpOp) []stepDesc {
	rps := o.resolve(ec)
	order := orderPatterns(rps, 0)
	var plans []*intersectPlan
	if !ec.noHashJoin {
		plans = planIntersections(ec.view, rps, order)
	}
	filterAt, final := o.placeFilters(rps, order)
	live := o.liveSets(rps, order, filterAt, final)
	out := make([]stepDesc, 0, len(order))
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
		out = append(out, stepDesc{
			text:      rp.qp.text,
			boundCols: strings.Join(cols, ","),
			index:     ix.Perm().String(),
			access:    access,
			est:       rp.estConst,
			intersect: len(group) > 0,
			collapse:  collapse,
		})
		if len(group) > 0 {
			group = group[1:]
		}
		bound |= rp.qp.vars()
	}
	return out
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE text rendering.
// ---------------------------------------------------------------------

// Render formats the profile as EXPLAIN ANALYZE text: the static plan
// shape with an "(actual: ...)" annotation per operator.
func (p *Profile) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Select (dataset=%s)  (actual: rows=%d wall=%s)\n",
		p.Dataset, p.Rows, time.Duration(p.WallNanos).Round(time.Microsecond))
	renderNodes(&sb, p.Plan, 1)
	return sb.String()
}

func renderNodes(sb *strings.Builder, nodes []*ProfileNode, indent int) {
	for _, n := range nodes {
		sb.WriteString(strings.Repeat("  ", indent))
		sb.WriteString(n.Label)
		if n.Index != "" {
			fmt.Fprintf(sb, " index=%s (%s) est=%d", n.Index, n.Access, n.Est)
		}
		if n.Collapse != "" {
			fmt.Fprintf(sb, " collapse=%s", n.Collapse)
		}
		if n.Weighted {
			sb.WriteString(" count=weighted")
		}
		if n.Batch {
			sb.WriteString(" batch")
		}
		if n.GroupKey != "" {
			fmt.Fprintf(sb, " key=%s", n.GroupKey)
		}
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
		if n.HashJoin {
			sb.WriteString(" join=hash")
		}
		if n.Intersect {
			sb.WriteString(" join=intersect")
		}
		if n.Invocations > 1 {
			fmt.Fprintf(sb, " loops=%d", n.Invocations)
		}
		fmt.Fprintf(sb, " wall=%s)\n", time.Duration(n.WallNanos).Round(time.Microsecond))
		renderNodes(sb, n.Children, indent+1)
	}
}
