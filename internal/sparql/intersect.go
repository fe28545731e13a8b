package sparql

// Sorted intersection joins (DESIGN.md §20).
//
// Index nested-loop and hash joins treat "bind ?z, then check ?z" as two
// steps: the first emits one row per candidate ?z, the second scans or
// probes once per row to keep the few that close the pattern (EQ12's
// `?y f ?z . ?z f ?x` emits every two-path to keep the triangles). But
// for one input binding each of those steps' candidates for ?z is a key
// range of an index whose key is the step's bound columns followed by
// ?z's column, and such a range is sorted by ?z. So the steps fuse into
// one leapfrog intersection of sorted ranges read straight from the
// indexes (Veldhuizen's leapfrog triejoin, one variable deep), with no
// intermediate rows and no hash table.
//
// The fused steps bind nothing but ?z, so every row they would emit for
// one value of ?z is the same binding; emitting that binding once per
// combination of matching rows, values in ascending order, reproduces
// the nested loop's depth-first emission byte for byte — provided the
// binding step's nested loop would have produced ?z in ascending order,
// which the planner checks.
//
// A side whose range is the previous input row's (EQ12's out(y), the
// driving scan being sorted by ?y) is marked in a bitmap once, and the
// rows that reuse it walk the other side probing the bitmap instead of
// leapfrogging both (walkSide, store.Marks).

import (
	"repro/internal/store"
)

// intersectPlan is one fused group of join steps: the binder, which
// binds one variable, and the checking steps right after it, which are
// fully bound once that variable is.
type intersectPlan struct {
	slot  int         // the variable the group binds
	sides []seekSide  // the binder, then its checking steps in join order
	cols  []store.Col // per side, the column the variable occupies
}

// seekSide is one step of a fused group: its pattern and the index its
// seeker reads, whose key is the step's bound columns followed by the
// group variable's column.
type seekSide struct {
	rp *resolvedPattern
	ix *store.Index
}

func (ip *intersectPlan) add(rp *resolvedPattern, ix *store.Index, col store.Col) {
	ip.sides = append(ip.sides, seekSide{rp: rp, ix: ix})
	ip.cols = append(ip.cols, col)
}

// colRef is one S/P/O position of a pattern with its store column.
type colRef struct {
	col store.Col
	r   posRef
}

func (rp *resolvedPattern) spo() [3]colRef {
	return [3]colRef{{store.ColS, rp.qp.s}, {store.ColP, rp.qp.p}, {store.ColC, rp.qp.o}}
}

// boundCols appends to dst the columns of rp that are constants or
// variables in bound, in S, P, C, G order.
func (rp *resolvedPattern) boundCols(dst []store.Col, bound varset) []store.Col {
	for _, c := range rp.spo() {
		if !c.r.isVar || bound.has(c.r.slot) {
			dst = append(dst, c.col)
		}
	}
	if g := rp.qp.g; g.kind == GraphTerm || g.kind == GraphVar && bound.has(g.slot) {
		dst = append(dst, store.ColG)
	}
	return dst
}

// varPos is a pattern position that holds a variable.
type varPos struct {
	col  store.Col
	slot int
}

// varPositions returns the pattern's variable positions — S, P, O and,
// for a GRAPH variable, G — in pos[:n].
func (rp *resolvedPattern) varPositions() (pos [4]varPos, n int) {
	for _, c := range rp.spo() {
		if c.r.isVar {
			pos[n] = varPos{c.col, c.r.slot}
			n++
		}
	}
	if rp.qp.g.kind == GraphVar {
		pos[n] = varPos{store.ColG, rp.qp.g.slot}
		n++
	}
	return pos, n
}

// bindsOne reports the variable a binder step binds: exactly one
// variable outside bound, in one S/P/O position, with no variable
// repeated and no unbound GRAPH variable.
func (rp *resolvedPattern) bindsOne(bound varset) (slot int, col store.Col, ok bool) {
	pos, n := rp.varPositions()
	seen, fresh := varset(0), 0
	for _, p := range pos[:n] {
		if seen.has(p.slot) {
			return 0, 0, false
		}
		seen = seen.with(p.slot)
		if !bound.has(p.slot) {
			if p.col == store.ColG {
				return 0, 0, false
			}
			slot, col = p.slot, p.col
			fresh++
		}
	}
	return slot, col, fresh == 1
}

// checksOnly reports the column of slot in a checking step: every other
// variable of the pattern is in bound and slot occurs exactly once.
func (rp *resolvedPattern) checksOnly(bound varset, slot int) (col store.Col, ok bool) {
	pos, n := rp.varPositions()
	seen := 0
	for _, p := range pos[:n] {
		switch {
		case p.slot == slot:
			col = p.col
			seen++
		case !bound.has(p.slot):
			return 0, false
		}
	}
	return col, seen == 1
}

// planIntersections finds the fusable groups of a join order for an
// input binding that binds none of the BGP's variables: plans[d] is the
// group whose binder runs at depth d. Only adjacent steps fuse and the
// order is kept. A group needs:
//
//   - a binder that binds one variable v (bindsOne) and whose nested
//     loop reads an index with v's column right after its bound columns
//     — the one ChooseIndex picks — so it emits v in ascending order;
//   - at least one following step that is fully bound once v is, with v
//     in one position and an index keyed by its bound columns, then v's.
//
// It returns nil when no group fuses, allocating nothing.
func planIntersections(view *store.View, rps []resolvedPattern, order []int) []*intersectPlan {
	var plans []*intersectPlan
	var buf [4]store.Col
	bound := varset(0)
	for d := 0; d < len(order); {
		rp := &rps[order[d]]
		var ip *intersectPlan
		if slot, col, ok := rp.bindsOne(bound); ok {
			cols := rp.boundCols(buf[:0], bound)
			if ix := view.SeekIndex(cols, col); ix != nil && ix == view.ChooseIndexByBound(cols) {
				for _, oi := range order[d+1:] {
					cp := &rps[oi]
					ccol, ok := cp.checksOnly(bound, slot)
					if !ok {
						break
					}
					cix := view.SeekIndex(cp.boundCols(buf[:0], bound), ccol)
					if cix == nil {
						break
					}
					if ip == nil {
						ip = &intersectPlan{slot: slot}
						ip.add(rp, ix, col)
					}
					ip.add(cp, cix, ccol)
				}
			}
		}
		if ip == nil {
			bound |= rp.qp.vars()
			d++
			continue
		}
		if plans == nil {
			plans = make([]*intersectPlan, len(order))
		}
		plans[d] = ip
		bound = bound.with(ip.slot)
		d += len(ip.sides)
	}
	return plans
}

// seekState is one fused depth's state in one executor: a seeker per
// side, opened on first use and kept for the query (the pinned view and
// the constant prefixes never change), each side's pattern and rows for
// the current input row with the intersection's position in them, and
// the marks of a two-sided group: which side's range they hold (-1:
// none) under which pattern. The view is pinned, so marks stay valid for
// as long as that side seeks the same pattern. visible is the dataset's
// row filter, nil when it sees every row.
type seekState struct {
	seekers []*store.Seeker
	pats    []store.Pattern
	rows    [][]store.IDQuad
	pos     []int
	visible func(store.IDQuad) bool

	marks   store.Marks
	marked  int
	markPat store.Pattern
}

func (vx *vecExec) seekState(depth int, ip *intersectPlan) *seekState {
	if ss := vx.seeks[depth]; ss != nil {
		return ss
	}
	n := len(ip.sides)
	ec := vx.sh.ec
	ss := &seekState{seekers: make([]*store.Seeker, n), pats: make([]store.Pattern, n),
		rows: make([][]store.IDQuad, n), pos: make([]int, n), marked: -1}
	if ec.models != nil {
		ss.visible = ec.quadVisible
	}
	for i, side := range ip.sides {
		ss.seekers[i] = ec.view.Seeker(side.ix, side.rp.constPattern())
	}
	vx.seeks[depth] = ss
	return ss
}

// walkRatio bounds the walk: an input row probes the marks only while
// the walked side is shorter than walkRatio times the marked one. A
// walk reads every row of its side; a gallop reads about a logarithm of
// the gap per value of the shorter side, so past that ratio galloping
// reads less (a hub's in-edges against a few out-edges).
const walkRatio = 32

// walkSide decides how the current input row intersects a two-sided
// group whose sides are seeked: it returns the side whose range the
// marks hold — marking it first — so that the other side walks, or -1
// to gallop. A row walks when the marks hold one side's current range
// or, failing that, when side repeat (-1: none) sought the previous
// input row's pattern — the binder, when the driving scan sorts by the
// variables it is narrowed by — and so likely will again; and only
// while walkRatio allows. cost is the marking's guard charge — one per
// value cleared and per row marked — and zero when the marks already
// held the range.
func (ss *seekState) walkSide(ip *intersectPlan, repeat int) (side, cost int) {
	side = repeat
	if ss.marked >= 0 && ss.pats[ss.marked] == ss.markPat {
		side = ss.marked
	}
	if side < 0 || len(ss.rows) != 2 || len(ss.rows[1-side]) >= walkRatio*len(ss.rows[side]) {
		return -1, 0
	}
	if side != ss.marked || ss.pats[side] != ss.markPat {
		rows := ss.rows[side]
		cost = ss.marks.Clear() + len(rows)
		ss.marks.Mark(rows, ip.cols[side], ss.visible)
		ss.marked, ss.markPat = side, ss.pats[side]
	}
	return side, cost
}

// common counts, once every side is at value x, each side's rows
// holding x that are visible in the dataset — a side's GRAPH variable,
// if any, is bound and so in its key prefix: only the dataset's models
// still filter rows — and moves each side past them. It returns the
// product of the counts and the rows it read.
func (ss *seekState) common(ec *execCtx, ip *intersectPlan, x store.ID) (mult int64, cost int) {
	mult = 1
	for s, r := range ss.rows {
		p, n := ss.pos[s], int64(0)
		for ; p < len(r) && r[p].Get(ip.cols[s]) == x; p++ {
			if ec.quadVisible(r[p]) {
				n++
			}
		}
		cost += p - ss.pos[s]
		ss.pos[s] = p
		mult *= n
	}
	return mult, cost
}

// intersect runs the fused group whose binder is at depth over one input
// batch: per input row it seeks every side's range and advances them to
// their common values of the group's variable. Per common value it
// emits the binding once for every combination of the sides' rows
// holding it that are visible in the dataset — in count mode once,
// weighted by their number, DESIGN.md §22 — or, when the group sums, it
// adds those numbers up over the row's values and emits one row
// weighted by the sum, binding the variable to the last value matched.
// Then it continues at the depth after the group. A row of a two-sided
// group whose one side's range the marks hold walks the other side
// probing them (store.Marks.Probe, or Marks.Sum when summing); every
// other row leapfrogs, each side galloping to the largest value any
// side is at. Rows seeked, marked, walked, counted and emitted, values
// cleared, gallops and the rows a seeker's directory build reads are
// charged to the guard with TickN, like the scan rows of a nested loop.
func (vx *vecExec) intersect(depth int, in *colBatch, ip *intersectPlan) bool {
	sh := vx.sh
	ec := sh.ec
	ss := vx.seekState(depth, ip)
	scratch := vx.scratch[depth]
	out, c := vx.out[depth], vx.collapse[depth]
	next := depth + len(ip.sides)
	// Filters placed after the binder or a checker need only the
	// group's variable beyond the input row: one evaluation per value.
	filters := sh.filterAt[depth+1 : next]
	// In count mode, when nothing after the group reads its variable and
	// no filter sits inside it, every value an input row matches leads
	// to the same subtree: the group sums (DESIGN.md §22).
	sum := sh.live != nil && !sh.live[next].has(ip.slot)
	for _, f := range filters {
		sum = sum && len(f) == 0
	}
	var ticks, emitted, collapsed, marked, walked, galloped, summed, dirs int64
	pending := 0
	settle := func() bool {
		ticks += int64(pending)
		ok := ec.guard.TickN(pending)
		pending = 0
		return ok
	}
	// emit appends scratch weighted each, descending once the output
	// batch is full; false means stop.
	emit := func(each int64) bool {
		if c == nil || !c.merge(out, scratch, each) {
			out.appendFrom(scratch, each)
			emitted++
		} else {
			collapsed++
		}
		pending++
		if out.n >= vx.limit(c) {
			if !settle() || !vx.descend(depth, next) {
				return false
			}
			vx.grow()
		}
		return true
	}
	stopped := false
rows:
	for i := 0; i < in.n; i++ {
		if pending >= batchRows && !settle() {
			stopped = true
			break
		}
		in.writeCols(i, scratch)
		wt := in.weight(i)
		repeat := -1
		for s, side := range ip.sides {
			p := side.rp.boundPattern(scratch)
			if p == ss.pats[s] && repeat < 0 {
				repeat = s
			}
			ss.pats[s] = p
			ss.rows[s], ss.pos[s] = ss.seekers[s].Seek(p), 0
			built, dir := ss.seekers[s].LastSeek()
			pending += 1 + built
			if dir {
				dirs++
			}
		}
		side, cost := ss.walkSide(ip, repeat)
		pending += cost
		if cost > 0 {
			marked++
		}
		if side >= 0 {
			walked++
		} else {
			galloped++
		}
		if sum {
			summed++
		}
		// A summing row adds up its matches in total, the last at last.
		var total int64
		var last store.ID
		walkSum := sum && side >= 0
		if walkSum {
			total, last, cost = ss.marks.Sum(ss.rows, ip.cols, ss.pos, side, ss.visible)
			pending += cost
		}
		for !walkSum {
			var x store.ID
			var steps int
			var ok bool
			if side >= 0 {
				x, steps, ok = ss.marks.Probe(ss.rows, ip.cols, ss.pos, side)
			} else {
				x, steps, ok = store.Leapfrog(ss.rows, ip.cols, ss.pos)
			}
			pending += steps
			if !ok {
				break
			}
			mult, cost := ss.common(ec, ip, x)
			pending += cost
			if sum {
				if mult > 0 {
					total, last = total+mult, x
				}
				continue
			}
			scratch[ip.slot] = x
			for _, f := range filters {
				if mult > 0 && !passFilters(ec, f, scratch) {
					mult = 0
				}
			}
			reps, each := mult, wt
			if sh.live != nil {
				reps, each = min(mult, 1), wt*mult
			}
			for ; reps > 0; reps-- {
				if !emit(each) {
					stopped = true
					break rows
				}
			}
			scratch[ip.slot] = store.NoID
		}
		if total > 0 {
			scratch[ip.slot] = last
			if !emit(wt * total) {
				stopped = true
				break
			}
			scratch[ip.slot] = store.NoID
		}
	}
	scratch[ip.slot] = store.NoID
	if !stopped && !settle() {
		stopped = true
	}
	// The binder reports the group's input, ticks and output; each
	// checker passes the group's output through.
	for j := depth; j < next; j++ {
		if st := sh.stepStat(j); st != nil {
			if j == depth {
				st.addTicks(ticks)
				st.addRows(emitted)
				st.addCollapsed(collapsed)
				st.addKernels(marked, walked, galloped, summed, dirs)
			} else {
				st.rowsIn += emitted
				st.rowsOut += emitted
			}
		}
	}
	if stopped {
		return false
	}
	if out.n > 0 {
		return vx.descend(depth, next)
	}
	return true
}
