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
// Consecutive input rows that give a side the same inputs form a run of
// that side, whose range is sought once. EQ12's driving scan is sorted
// by ?y, so every in-edge of y is one run of the binder: out(y) is
// sought and, in a two-sided group, marked in a bitmap once, and each
// row of the run walks its other side (in(x)) probing the bitmap
// instead of leapfrogging both (store.Marks). When the rows run on the
// checking side instead (a 4-cycle's closing group, fed in ?a order),
// that side is the one marked.

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

// seekSide is one step of a fused group: its pattern, the index its
// seeker reads, whose key is the step's bound columns followed by the
// group variable's column, and its inputs: its other variables.
type seekSide struct {
	rp   *resolvedPattern
	ix   *store.Index
	keys []int
}

func (ip *intersectPlan) add(rp *resolvedPattern, ix *store.Index, col store.Col) {
	side := seekSide{rp: rp, ix: ix}
	pos, n := rp.varPositions()
	for _, p := range pos[:n] {
		if p.slot != ip.slot {
			side.keys = append(side.keys, p.slot)
		}
	}
	ip.sides = append(ip.sides, side)
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
// the constant prefixes never change), each side's rows for the current
// input row with the intersection's position in them, the inputs each
// side's rows were sought for (valid once inRun), whether the previous
// row started a run of the binder, and the side whose rows the marks
// hold, -1 for none. The view is pinned, so a side's rows
// and the marks stay valid for as long as its inputs do, across input
// batches. visible is the dataset's row filter, nil when it sees every
// row. In a rotating group, start[s] is where the last row started
// side s, at its first value at or past that row's x; valid until the
// side is sought again.
type seekState struct {
	seekers []*store.Seeker
	rows    [][]store.IDQuad
	pos     []int
	visible func(store.IDQuad) bool

	key    [][]store.ID
	inRun  bool
	short  bool
	marks  store.Marks
	marked int

	start []int
}

func (vx *vecExec) seekState(depth int, ip *intersectPlan) *seekState {
	if ss := vx.seeks[depth]; ss != nil {
		return ss
	}
	n := len(ip.sides)
	ec := vx.sh.ec
	ss := &seekState{seekers: make([]*store.Seeker, n), rows: make([][]store.IDQuad, n), pos: make([]int, n),
		key: make([][]store.ID, n), marked: -1, start: make([]int, n)}
	if ec.models != nil {
		ss.visible = ec.quadVisible
	}
	for i, side := range ip.sides {
		ss.seekers[i] = ec.view.Seeker(side.ix, side.rp.constPattern())
		ss.key[i] = make([]store.ID, len(side.keys))
	}
	vx.seeks[depth] = ss
	return ss
}

// newRun reports whether the input row b starts a run of side s:
// whether it is the first row or gives the side other inputs than the
// ones its rows were sought for. It records b's inputs.
func (ss *seekState) newRun(s int, keys []int, b binding) bool {
	fresh := !ss.inRun
	for k, slot := range keys {
		if v := b[slot]; v != ss.key[s][k] {
			ss.key[s][k], fresh = v, true
		}
	}
	return fresh
}

// walkRatio bounds the walk: an input row of a two-sided group probes
// the marks of one side's range only while what remains of the other
// side is shorter than walkRatio times what remains of that range. A
// walk reads every remaining row of its side; a gallop reads about a
// logarithm of the gap per value of the shorter side, so past that
// ratio galloping reads less (a hub's in-edges against a few
// out-edges).
const walkRatio = 32

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

// past starts each side at its first row past x, the rotation's x
// (DESIGN.md §22) — when tie is set (x = y), at x, whose combinations
// it counts first, as common does, returning them with the rows it
// read, when every side holds x. A side still on the rows it was
// sought for searches on from where the last row started it: the
// driving rows of one run of out(y) come in ascending x.
func (ss *seekState) past(ec *execCtx, ip *intersectPlan, x store.ID, tie bool) (mult int64, cost int) {
	at := tie
	for s, r := range ss.rows {
		p := store.SeekColNear(r, ss.start[s], ip.cols[s], x)
		ss.start[s], ss.pos[s] = p, p
		at = at && p < len(r) && r[p].Get(ip.cols[s]) == x
	}
	if at {
		mult, cost = ss.common(ec, ip, x)
	}
	for s, r := range ss.rows {
		for ss.pos[s] < len(r) && r[ss.pos[s]].Get(ip.cols[s]) == x {
			ss.pos[s]++
		}
	}
	return mult, cost
}

// intersect runs the fused group whose binder is at depth over one input
// batch: each side's range is sought by the first row of each of its
// runs, and every row advances the sides to their common values of the
// group's variable. Per common value it emits the binding once for
// every combination of the sides' rows holding it that are visible in
// the dataset — in count mode once, weighted by their number, DESIGN.md
// §22 — or, when the group sums, it adds those numbers up over the
// row's values and emits one row weighted by the sum, binding the
// variable to the last value matched. Where the BGP's rotation rule
// binds its z here, the sides start past the row's x, each value
// weighs three — and x itself once, when x = y (DESIGN.md §22). Then
// it continues at the depth after the group. A row of a two-sided
// group walks one side probing the marks of the other's range
// (store.Marks.Probe, or Marks.Sum when summing) unless walkRatio says
// gallop. The marks hold a side's range until its run ends; a row that
// finds them stale marks the binder's range, or the checker's when the
// binder's runs are one row long — its last run was, and this row
// starts another — while the checker's run goes on from the previous
// row. Every other row leapfrogs, each side galloping to the largest
// value any side is at. Rows seeked, marked, walked, counted and
// emitted, values cleared, gallops and the rows a seeker's directory
// build reads are charged to the guard with TickN, like the scan rows
// of a nested loop.
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
	rot := vx.rotate && sh.rot.last == depth
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
	// seek reads side s's range for the current input row.
	seek := func(s int) {
		ss.rows[s] = ss.seekers[s].Seek(ip.sides[s].rp.boundPattern(scratch))
		ss.start[s] = 0
		built, dir := ss.seekers[s].LastSeek()
		pending += 1 + built
		if dir {
			dirs++
		}
	}
	// The current row's weight and, when summing, its matches so far
	// and the last value matched.
	var wt, total int64
	var last store.ID
	// match takes value x of the current row, held by mult combinations
	// of visible rows: a summing row adds them up, any other emits the
	// binding; false means stop.
	match := func(x store.ID, mult int64) bool {
		if sum {
			if mult > 0 {
				total, last = total+mult, x
			}
			return true
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
				return false
			}
		}
		scratch[ip.slot] = store.NoID
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
		wt, total = in.weight(i), 0
		var fresh [2]bool
		for s, side := range ip.sides {
			if ss.newRun(s, side.keys, scratch) {
				seek(s)
				if ss.marked == s {
					ss.marked = -1
				}
				if s < len(fresh) {
					fresh[s] = true
				}
			}
		}
		ss.inRun = true
		// orbit is what each value past the start weighs.
		orbit := int64(1)
		if rot {
			x := scratch[sh.rot.x]
			mult, cost := ss.past(ec, ip, x, x == scratch[sh.rot.y])
			pending += cost
			if mult > 0 && !match(x, mult) {
				stopped = true
				break
			}
			orbit = 3
		} else {
			clear(ss.pos)
		}
		// m is the side the marks hold or are to hold.
		m := ss.marked
		if m < 0 {
			m = 0
			if fresh[0] && ss.short && !fresh[1] {
				m = 1
			}
		}
		ss.short = fresh[0]
		walk := len(ss.rows) == 2 && len(ss.rows[1-m])-ss.pos[1-m] < walkRatio*(len(ss.rows[m])-ss.pos[m])
		if walk && ss.marked != m {
			pending += ss.marks.Clear() + len(ss.rows[m])
			ss.marks.Mark(ss.rows[m], ip.cols[m], ss.visible)
			ss.marked = m
			marked++
		}
		if walk {
			walked++
		} else {
			galloped++
		}
		if sum {
			summed++
		}
		if sum && walk {
			n, l, cost := ss.marks.Sum(ss.rows, ip.cols, ss.pos, m, ss.visible)
			pending += cost
			match(l, orbit*n)
		}
		for !(sum && walk) {
			var x store.ID
			var steps int
			var ok bool
			if walk {
				x, steps, ok = ss.marks.Probe(ss.rows, ip.cols, ss.pos, m)
			} else {
				x, steps, ok = store.Leapfrog(ss.rows, ip.cols, ss.pos)
			}
			pending += steps
			if !ok {
				break
			}
			mult, cost := ss.common(ec, ip, x)
			pending += cost
			if !match(x, orbit*mult) {
				stopped = true
				break rows
			}
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
