package sparql

// Batch-at-a-time BGP execution (DESIGN.md §15).
//
// A tuple-at-a-time join pays an interface dispatch, a guard tick and
// (when profiling) counter flushes per binding; over the 10^5–10^6
// intermediate rows of a multi-way join (EQ12's two-paths, EQ3's tag
// chains) that per-row overhead dominates the join work itself. The BGP
// driver pushes fixed-size columnar batches of store.ID vectors through
// the join instead:
//
//   - Scans pull contiguous runs from the store's batched scan API
//     (View.ScanBatch) and bind whole runs in tight
//     loops; the guard is charged once per run via TickN, and profile
//     counters accumulate in locals flushed once per scan.
//   - Joins advance depth-by-depth over batches: all rows of a batch
//     are probed (or scanned) at one join step before the output batch
//     recurses, and an output batch recurses as soon as it fills. This
//     keeps the depth-first emission order of a tuple-at-a-time nested
//     loop: outputs are appended in input-row order at every depth and
//     each full batch is drained to emission before the next is built,
//     so the leaf emission sequence is the DFS sequence.
//   - Filters apply as selection vectors: a batch is compacted in
//     place, surviving rows copied down, instead of materializing
//     per-row bindings.
//
// The batch operators are the BGP, the FILTERs after it and a UNION
// whose branches end that way (a lowered alternation path); the rest
// of the plan adapts at the boundary. A colBatch carries its input
// binding (base) plus one ID column per variable slot the BGP touches,
// so any consumer can materialize rows on demand — selectIDs and
// grouping consume batches directly (grouping folds COUNTs straight
// from the key and argument columns, and a BGP whose only consumer is
// such a fold carries row weights and collapses rows instead of
// enumerating them, DESIGN.md §22), and bgpOp.apply hands them row by
// row to the row operators (OPTIONAL, MINUS, BIND, row UNIONs...).

import (
	"time"

	"repro/internal/store"
)

// batchRows is the row capacity of one columnar batch — the store's
// batched-scan run size, so scan runs map 1:1 onto binding batches.
const batchRows = store.DefaultBatchRows

// vecRampStart is the initial adaptive batch cap. The executor flushes
// its first output batch after this many rows and grows the cap ×4 per
// flush up to batchRows, so an early-stopping consumer (ASK, LIMIT, a
// tight MaxWork budget) sees its first rows — and the guard its
// first ticks — after ~64 rows of scan-ahead instead of a full batch,
// while steady-state scans reach full batch size within two flushes.
const vecRampStart = 64

// colBatch is a columnar batch of bindings derived from one input
// binding: base holds the input row's values, and each slot in slots
// has a column of per-row values for the variables bound by the BGP so
// far — never NoID, since a BGP binds every variable it has a column
// for. Rows i of all columns together with base form one binding.
// Batches handed to consumers are only valid during the callback
// (producers reuse them); consumers may compact a batch in place
// (shrink n, move rows down) but must not grow it.
type colBatch struct {
	base  binding
	slots []int        // slots with a column, in binding order
	cols  [][]store.ID // indexed by slot; nil = slot not columnar
	// w is each row's weight — the number of solutions the row stands
	// for — in a BGP a COUNT fold consumes (DESIGN.md §22); nil while
	// every row counts once, and kept once a row weighs more.
	w []int64
	n int // rows
}

func newColBatch(width int, slots []int) *colBatch {
	cb := &colBatch{slots: slots, cols: make([][]store.ID, width)}
	for _, s := range slots {
		cb.cols[s] = make([]store.ID, 0, batchRows)
	}
	return cb
}

func (cb *colBatch) reset() {
	for _, s := range cb.slots {
		cb.cols[s] = cb.cols[s][:0]
	}
	if cb.w != nil {
		cb.w = cb.w[:0]
	}
	cb.n = 0
}

// appendFrom appends one row of weight wt, reading the column slots'
// values from b.
func (cb *colBatch) appendFrom(b binding, wt int64) {
	for _, s := range cb.slots {
		cb.cols[s] = append(cb.cols[s], b[s])
	}
	if wt != 1 || cb.w != nil {
		cb.weigh()
		cb.w = append(cb.w, wt)
	}
	cb.n++
}

// weigh gives the batch its weight column: one for each row so far.
func (cb *colBatch) weigh() {
	if cb.w == nil {
		cb.w = make([]int64, cb.n, max(cb.n, batchRows))
		for i := range cb.w {
			cb.w[i] = 1
		}
	}
}

// weight returns row i's weight.
func (cb *colBatch) weight(i int) int64 {
	if cb.w == nil {
		return 1
	}
	return cb.w[i]
}

// move copies row src over row dst, weight included: the compaction
// step of a selection.
func (cb *colBatch) move(dst, src int) {
	for _, s := range cb.slots {
		cb.cols[s][dst] = cb.cols[s][src]
	}
	if cb.w != nil {
		cb.w[dst] = cb.w[src]
	}
}

// writeCols overwrites dst's column slots with row i's values. dst must
// already hold base's values for the non-column slots; every row writes
// the same slot set, so no values leak between rows.
func (cb *colBatch) writeCols(i int, dst binding) {
	for _, s := range cb.slots {
		dst[s] = cb.cols[s][i]
	}
}

// materialize copies row i into dst as a full binding.
func (cb *colBatch) materialize(i int, dst binding) {
	copy(dst, cb.base)
	cb.writeCols(i, dst)
}

// batchSource produces columnar batches, calling yield for each; yield
// returns false to stop early. Batches are borrowed: valid only during
// the call.
type batchSource func(yield func(*colBatch) bool) error

// instrumentBatch is the batch counterpart of queryProfile.instrument:
// rows-out counts rows (not batches), wall time is inclusive.
func (p *queryProfile) instrumentBatch(sid int, src batchSource) batchSource {
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

// passFilters evaluates a filter list against one materialized row.
func passFilters(ec *execCtx, filters []*filterOp, b binding) bool {
	for _, f := range filters {
		v, err := evalBool(ec, f.cond, b)
		if err != nil || !v {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// The vectorized BGP driver.
// ---------------------------------------------------------------------

// vecExec drives one BGP input binding through the join tree
// batch-at-a-time. The plan (which slots are columnar at each depth) is
// derived from the input binding's boundness mask and rebuilt only when
// the mask changes, so repeated input bindings reuse every buffer.
type vecExec struct {
	sh    *bgpShared
	width int
	base  binding // the current input binding (borrowed)
	mask  varset  // boundness mask the plan below was built for
	ready bool

	// colSlots[d] are the columnar slots of the batch entering depth d
	// (d = len(order) is the emission depth); out[d] is the reusable
	// output batch of depth d, scratch[d] the depth's materialization
	// buffer, undo[d] its in-place binding undo log.
	colSlots [][]int
	out      []*colBatch
	scratch  []binding
	undo     []undoList
	unit     *colBatch // the 1-row, column-less batch entering depth 0

	// collapse[d] folds out[d] on its live columns in count mode
	// (DESIGN.md §22); nil where depth d's output drops no column.
	// distinct[d] says a collapse feeds depth d rows that differ in the
	// variables its step joins on, so a hash table would save no scan.
	collapse []*collapser
	distinct []bool

	// fuse says the BGP's fused groups (bgpShared.intersect) apply to
	// the current input binding: it binds none of the BGP's variables.
	// seeks[d] is the seek state of the group at depth d.
	fuse  bool
	seeks []*seekState

	// cap is the adaptive output-batch flush threshold (vecRampStart up
	// to batchRows), shared across depths and reset per input binding.
	cap int

	// emit receives finished batches (borrowed, valid during the call).
	emit func(*colBatch) bool
}

func newVecExec(sh *bgpShared, width int) *vecExec {
	vx := &vecExec{sh: sh, width: width, unit: &colBatch{}}
	if sh.intersect != nil {
		vx.seeks = make([]*seekState, len(sh.order))
	}
	return vx
}

// prepare points the executor at a new input binding, rebuilding the
// per-depth plan when the binding's boundness differs from the last.
func (vx *vecExec) prepare(b binding) {
	vx.base = b
	mask := varset(0)
	for s, v := range b {
		if v != store.NoID {
			mask = mask.with(s)
		}
	}
	nd := len(vx.sh.order)
	if !vx.ready || mask != vx.mask {
		vx.ready, vx.mask = true, mask
		vx.fuse = vx.sh.intersect != nil && mask&vx.sh.vars == 0
		bound := mask
		vx.colSlots = make([][]int, nd+1)
		for d, oi := range vx.sh.order {
			rp := &vx.sh.rps[oi]
			next := append([]int(nil), vx.colSlots[d]...)
			addNew := func(r posRef) {
				if r.isVar && !bound.has(r.slot) {
					next = append(next, r.slot)
					bound = bound.with(r.slot)
				}
			}
			addNew(rp.qp.s)
			addNew(rp.qp.p)
			addNew(rp.qp.o)
			if rp.qp.g.kind == GraphVar {
				addNew(posRef{isVar: true, slot: rp.qp.g.slot})
			}
			vx.colSlots[d+1] = next
		}
		vx.out = make([]*colBatch, nd)
		vx.collapse = make([]*collapser, nd)
		vx.distinct = make([]bool, nd)
		for d := range vx.out {
			vx.out[d] = newColBatch(vx.width, vx.colSlots[d+1])
			next := d + 1
			if vx.fuse && vx.sh.intersect[d] != nil {
				next = d + len(vx.sh.intersect[d].sides)
			}
			if keys, dropped := collapseKeys(vx.sh.live, vx.colSlots[d+1], d, next); dropped != 0 {
				vx.collapse[d] = newCollapser(keys)
				vx.distinct[next] = true
				for _, s := range keys {
					vx.distinct[next] = vx.distinct[next] && vx.sh.rps[vx.sh.order[next]].qp.vars().has(s)
				}
			}
		}
		vx.scratch = make([]binding, nd+1)
		for i := range vx.scratch {
			vx.scratch[i] = make(binding, vx.width)
		}
		vx.undo = make([]undoList, nd)
	}
	for i := range vx.scratch {
		copy(vx.scratch[i], b)
	}
	for d := range vx.out {
		vx.out[d].reset()
		vx.out[d].base = b
		if c := vx.collapse[d]; c != nil {
			c.reset()
		}
	}
	vx.unit.base = b
	vx.unit.n = 1
}

// run evaluates the join tree for one input binding. It returns false
// when the consumer stopped or the guard tripped.
func (vx *vecExec) run(b binding) bool {
	vx.prepare(b)
	vx.cap = vecRampStart
	return vx.step(0, vx.unit)
}

// grow raises the adaptive batch cap after a flush.
func (vx *vecExec) grow() {
	if vx.cap < batchRows {
		vx.cap *= 4
		if vx.cap > batchRows {
			vx.cap = batchRows
		}
	}
}

// maxCollapseKeys bounds the live columns a depth may fold on; a depth
// with more keeps its rows. collapseRows is how many folded rows a
// depth holds before it descends anyway, which bounds its memory.
const (
	maxCollapseKeys = 4
	collapseRows    = 64 * batchRows
)

// collapser is one depth's fold of its output rows onto their live
// columns keys (DESIGN.md §22). It maps the live values of each row of
// the output batch to the row: one does when there is a single live
// column — a path's frontier, the common case — and rows otherwise.
type collapser struct {
	keys []int
	one  map[store.ID]int32
	rows map[[maxCollapseKeys]store.ID]int32
}

func newCollapser(keys []int) *collapser {
	if len(keys) == 1 {
		return &collapser{keys: keys, one: make(map[store.ID]int32)}
	}
	return &collapser{keys: keys, rows: make(map[[maxCollapseKeys]store.ID]int32)}
}

func (c *collapser) reset() {
	clear(c.one)
	clear(c.rows)
}

// collapseKeys decides whether, in count mode (live non-nil), the
// output of depth d — columns cols — folds before it descends into
// depth next: when next is a join step, not the emission, and some
// column live entering d is dead at next. Rows that agree on the
// columns still live at next have identical subtrees, so one of them,
// weighted by their summed weights, stands for all. It returns the
// columns to fold on and the columns dropped (0: no fold).
func collapseKeys(live []varset, cols []int, d, next int) (keys []int, dropped varset) {
	if live == nil || next >= len(live)-1 {
		return nil, 0
	}
	for _, s := range cols {
		switch {
		case live[next].has(s):
			keys = append(keys, s)
		case live[d].has(s):
			dropped = dropped.with(s)
		}
	}
	if len(keys) > maxCollapseKeys {
		return nil, 0
	}
	return keys, dropped
}

// merge adds wt to the row of out that holds b's live values, if there
// is one, and reports whether there was; otherwise it records that the
// row about to be appended at out.n holds them.
func (c *collapser) merge(out *colBatch, b binding, wt int64) bool {
	var i int32
	var ok bool
	if c.one != nil {
		id := b[c.keys[0]]
		if i, ok = c.one[id]; !ok {
			c.one[id] = int32(out.n)
		}
	} else {
		var k [maxCollapseKeys]store.ID
		for j, s := range c.keys {
			k[j] = b[s]
		}
		if i, ok = c.rows[k]; !ok {
			c.rows[k] = int32(out.n)
		}
	}
	if ok {
		out.weigh()
		out.w[i] += wt
	}
	return ok
}

// limit is how many rows an output batch holds before it descends: the
// adaptive cap, or collapseRows for a collapsing depth (c non-nil),
// which otherwise descends once its input is done.
func (vx *vecExec) limit(c *collapser) int {
	if c != nil {
		return collapseRows
	}
	return vx.cap
}

// descend hands depth's output batch to depth next and empties it.
func (vx *vecExec) descend(depth, next int) bool {
	out := vx.out[depth]
	cont := vx.step(next, out)
	out.reset()
	if c := vx.collapse[depth]; c != nil {
		c.reset()
	}
	return cont
}

// selectRows compacts in to the rows passing the depth's entry filters
// (filterAt) as a selection vector.
func (vx *vecExec) selectRows(depth int, in *colBatch, filters []*filterOp) {
	ec := vx.sh.ec
	scratch := vx.scratch[depth]
	w := 0
	for i := 0; i < in.n; i++ {
		in.writeCols(i, scratch)
		if !passFilters(ec, filters, scratch) {
			continue
		}
		if w != i {
			in.move(w, i)
		}
		w++
	}
	in.n = w
}

// step processes one input batch at a join depth, appending results to
// the depth's output batch and draining it to the next depth whenever
// it fills. It returns false when the consumer stopped or the guard
// tripped; filtered-out or non-matching rows are simply skipped.
func (vx *vecExec) step(depth int, in *colBatch) bool {
	sh := vx.sh
	ec := sh.ec
	// Cooperative cancellation, amortized to once per batch; the scan
	// and probe loops below poll again per run via TickN.
	if !ec.guard.Poll() {
		return false
	}
	if filters := sh.filterAt[depth]; len(filters) > 0 {
		vx.selectRows(depth, in, filters)
	}
	if in.n == 0 {
		return true
	}
	if depth == len(sh.order) {
		return vx.emitBatch(in)
	}
	// A fused group emits what nested loops over its steps would, in
	// the same order (intersect.go), and continues past them.
	if vx.fuse && sh.intersect[depth] != nil {
		sh.inputSeen[depth] += int64(in.n)
		return vx.intersect(depth, in, sh.intersect[depth])
	}
	rp := &sh.rps[sh.order[depth]]
	hs := &sh.hashes[depth]
	pst := sh.stepStat(depth)
	scratch := vx.scratch[depth]
	out, c := vx.out[depth], vx.collapse[depth]
	sh.inputSeen[depth] += int64(in.n)
	seen := sh.inputSeen[depth]

	// The adaptive NLJ→hash switch, decided once per input batch. Both
	// access paths emit rows in identical order, so where the switch
	// falls does not change the output (DESIGN.md §10). Rows that differ
	// in the step's join variables scan each range once: no switch.
	if !hs.built && !ec.noHashJoin && !vx.distinct[depth] && seen > int64(ec.hashMin) &&
		rp.estConst < 64*int(seen) {
		in.writeCols(0, scratch)
		sh.buildHash(depth, rp, scratch)
	}

	if hs.built {
		in.writeCols(0, scratch)
		usable := true
		for _, slot := range hs.keySlots {
			if scratch[slot] == store.NoID {
				usable = false // heterogeneous boundness: NLJ fallback
				break
			}
		}
		if usable {
			return vx.probeBatch(depth, in, rp, hs, pst)
		}
	}

	// Index nested-loop join over the batched scan: one range scan per
	// input row, bound in tight loops over the returned runs. Guard
	// charges batch up in pending and flush once per run (TickN is
	// budget-equivalent to per-row ticks); profile counters flush once
	// per input batch.
	stopped := false
	var scanned, emitted, collapsed int64
	pending := 0
	for i := 0; i < in.n; i++ {
		in.writeCols(i, scratch)
		wt := in.weight(i)
		stop := false
		ec.view.ScanBatch(rp.boundPattern(scratch), batchRows, func(run []store.IDQuad) bool {
			for _, q := range run {
				if !ec.quadVisible(q) {
					continue
				}
				scanned++
				pending++
				if !rp.matchesGraphCtx(q) {
					continue
				}
				if !rp.bindQuad(scratch, q, &vx.undo[depth]) {
					continue
				}
				if c == nil || !c.merge(out, scratch, wt) {
					out.appendFrom(scratch, wt)
					emitted++
				} else {
					collapsed++
				}
				vx.undo[depth].revert(scratch)
				if out.n >= vx.limit(c) {
					if !ec.guard.TickN(pending) {
						pending, stop = 0, true
						return false
					}
					pending = 0
					if !vx.descend(depth, depth+1) {
						stop = true
						return false
					}
					vx.grow()
				}
			}
			if !ec.guard.TickN(pending) {
				pending, stop = 0, true
				return false
			}
			pending = 0
			return true
		})
		if stop {
			stopped = true
			break
		}
	}
	pst.addTicks(scanned)
	pst.addRows(emitted)
	pst.addCollapsed(collapsed)
	if stopped {
		return false
	}
	if out.n > 0 {
		return vx.descend(depth, depth+1)
	}
	return true
}

// probeBatch joins one input batch against a built hash table.
func (vx *vecExec) probeBatch(depth int, in *colBatch, rp *resolvedPattern, hs *hashState, pst *profStage) bool {
	ec := vx.sh.ec
	scratch := vx.scratch[depth]
	out, c := vx.out[depth], vx.collapse[depth]
	var emitted, collapsed int64 // flushed once per input batch
	pending := 0
	stopped := false
	for i := 0; i < in.n; i++ {
		in.writeCols(i, scratch)
		wt := in.weight(i)
		var key [4]store.ID
		for k, slot := range hs.keySlots {
			key[k] = scratch[slot]
		}
		for _, q := range hs.table[key] {
			// Non-key bound positions are validated by bindQuad.
			if !rp.bindQuad(scratch, q, &vx.undo[depth]) {
				continue
			}
			pending++
			if c == nil || !c.merge(out, scratch, wt) {
				out.appendFrom(scratch, wt)
				emitted++
			} else {
				collapsed++
			}
			vx.undo[depth].revert(scratch)
			if out.n >= vx.limit(c) {
				// Probed rows bypass the scan guard, so charge them
				// here — batched, like the scan path.
				if !ec.guard.TickN(pending) {
					pending, stopped = 0, true
					break
				}
				pending = 0
				if !vx.descend(depth, depth+1) {
					stopped = true
					break
				}
				vx.grow()
			}
		}
		if stopped {
			break
		}
	}
	if !stopped && !ec.guard.TickN(pending) {
		stopped = true
	}
	// Probe hits are guard ticks and, but for the collapsed, rows out.
	pst.addTicks(emitted + collapsed)
	pst.addRows(emitted)
	pst.addCollapsed(collapsed)
	if stopped {
		return false
	}
	if out.n > 0 {
		return vx.descend(depth, depth+1)
	}
	return true
}

// emitBatch applies the final filters as a selection over the finished
// batch and hands it to the consumer.
func (vx *vecExec) emitBatch(in *colBatch) bool {
	sh := vx.sh
	if len(sh.finalFilters) > 0 {
		vx.selectRows(len(sh.order), in, sh.finalFilters)
		// selectRows ran the final filters; re-running filterAt at this
		// depth is step's job, which already happened.
	}
	if in.n == 0 {
		return true
	}
	return vx.emit(in)
}

// applyBatch is the BGP join: per input binding it drives the join
// depth by depth, emitting batches. The shared state and the driver's
// buffers are built once and reused by every run — a BGP nested under
// OPTIONAL, MINUS or UNION runs once per outer row.
func (o *bgpOp) applyBatch(ec *execCtx, in source) batchSource {
	sh := o.newShared(ec)
	var vx *vecExec
	return func(yield func(*colBatch) bool) error {
		if sh == nil {
			return nil // a constant term does not occur: no solutions
		}
		sh.reset()
		err := in(func(b binding) bool {
			if sh.bgpStage != nil {
				sh.bgpStage.rowsIn++
			}
			if vx == nil {
				vx = newVecExec(sh, len(b))
			}
			vx.emit = yield
			return vx.run(b)
		})
		sh.foldStepStats()
		if err == nil && ec.guard != nil {
			err = ec.guard.Err()
		}
		return err
	}
}

// ---------------------------------------------------------------------
// The row/batch boundary: plan tail detection and batch consumers.
// ---------------------------------------------------------------------

// filterBatch runs a FILTER as a selection vector over each batch:
// survivors are compacted down in place, empty batches are dropped.
func (o *filterOp) filterBatch(ec *execCtx, in batchSource) batchSource {
	var scratch binding
	return func(yield func(*colBatch) bool) error {
		return in(func(cb *colBatch) bool {
			if scratch == nil {
				scratch = make(binding, len(cb.base))
			}
			copy(scratch, cb.base)
			w := 0
			for i := 0; i < cb.n; i++ {
				cb.writeCols(i, scratch)
				v, err := evalBool(ec, o.cond, scratch)
				if err != nil || !v {
					continue
				}
				if w != i {
					cb.move(w, i)
				}
				w++
			}
			cb.n = w
			if cb.n == 0 {
				return true
			}
			return yield(cb)
		})
	}
}

// vectorTail returns the pipeline as a batch source over the input in
// when its tail is batch-native: a BGP followed only by FILTERs, or a
// UNION that markBatchTail marked (every branch a batch-native tail).
// Everything before the tail runs as the row pipeline feeding it. It
// returns nil otherwise — the caller then consumes the row pipeline,
// whose BGPs hand their batches out row by row.
func vectorTail(ec *execCtx, ops []op, in source) batchSource {
	if n := len(ops); n > 0 {
		if u, ok := ops[n-1].(*unionOp); ok {
			if !u.batch {
				return nil
			}
			bs := u.applyBatch(ec, runPipeline(ec, ops[:n-1], in))
			if ec.prof != nil {
				bs = ec.prof.instrumentBatch(u.stageID(), bs)
			}
			return bs
		}
	}
	idx := bgpTail(ops)
	if idx < 0 {
		return nil
	}
	bgp := ops[idx].(*bgpOp)
	bs := bgp.applyBatch(ec, runPipeline(ec, ops[:idx], in))
	if ec.prof != nil {
		bs = ec.prof.instrumentBatch(bgp.stageID(), bs)
	}
	for _, o := range ops[idx+1:] {
		f := o.(*filterOp)
		bs = f.filterBatch(ec, bs)
		if ec.prof != nil {
			bs = ec.prof.instrumentBatch(f.stageID(), bs)
		}
	}
	return bs
}

// bgpTail returns the index of the pipeline's last BGP when only
// FILTERs follow it, else -1.
func bgpTail(ops []op) int {
	for i := len(ops) - 1; i >= 0; i-- {
		switch ops[i].(type) {
		case *bgpOp:
			return i
		case *filterOp:
		default:
			return -1
		}
	}
	return -1
}

// batchTail reports whether ops ends batch-native: a BGP followed only
// by FILTERs, or a UNION whose branches all end batch-native.
func batchTail(ops []op) bool {
	n := len(ops)
	if n == 0 {
		return false
	}
	u, ok := ops[n-1].(*unionOp)
	if !ok {
		return bgpTail(ops) >= 0
	}
	for _, br := range u.branches {
		if !batchTail(br) {
			return false
		}
	}
	return true
}

// markBatchTail marks, once at compile time, the UNIONs vectorTail runs
// batch-native: the UNION ending a batch-native pipeline and, through
// its branches, the UNIONs ending those. A UNION nested in a row UNION
// runs row by row and stays unmarked. The mark is a property of the
// plan's shape, so EXPLAIN prints it without running anything.
func markBatchTail(ops []op) {
	if !batchTail(ops) {
		return
	}
	if u, ok := ops[len(ops)-1].(*unionOp); ok {
		u.batch = true
		for _, br := range u.branches {
			markBatchTail(br)
		}
	}
}

// markCountTail marks, once at compile time, a BGP whose only consumer
// is a COUNT fold (DESIGN.md §22): the pipeline ends in a BGP plus
// FILTERs and every aggregate folds from columns (countFold). countLive
// is what the consumers read: the group key and the trailing FILTERs'
// variables. A COUNT argument the BGP binds is bound in every row.
func markCountTail(cp *compiled) {
	idx := bgpTail(cp.pipeline)
	if !cp.grouping || idx < 0 || !countFold(cp) {
		return
	}
	bgp := cp.pipeline[idx].(*bgpOp)
	bgp.count = true
	if kind, slot := groupKeyOf(cp); kind == keyID {
		bgp.countLive = bgp.countLive.with(slot)
	}
	for _, o := range cp.pipeline[idx+1:] {
		bgp.countLive |= o.(*filterOp).need
	}
}

// applyBatch is UNION over batches: per input binding it runs branch
// 1's batch source to exhaustion, then branch 2's, and so on — the row
// union's emission order (unionOf), so results are identical. Branch
// batches carry different column sets; consumers read each batch's own
// slots. The branch sources are built once over a feed and rerun per
// input binding, like the row union's.
func (o *unionOp) applyBatch(ec *execCtx, in source) batchSource {
	var row feed
	branches := make([]func(func(*colBatch) bool) error, len(o.branches))
	for i, br := range o.branches {
		branches[i] = vectorTail(ec, br, row.source)
	}
	return unionOf(in, &row, branches)
}

// planNote is EXPLAIN's annotation text, when on, of an operator's
// label: ", batch" for a UNION that runs columnar, ", count=weighted"
// for a BGP that counts (DESIGN.md §21, §22).
func planNote(on bool, text string) string {
	if on {
		return ", " + text
	}
	return ""
}

// addBatches folds a batch source into the groups. When every
// aggregate is a plain COUNT(*) or COUNT(?v) and the key is not an
// expression (countFold), batches fold straight from their key and
// argument columns; otherwise each row is materialized and added. Both
// create groups in first-seen order, through the same row cap.
func (acc *groupAcc) addBatches(bs batchSource) error {
	ec := acc.ec
	var scratch binding
	columnar := countFold(acc.cp)
	return finishGuard(ec, bs(func(cb *colBatch) bool {
		if scratch == nil {
			scratch = make(binding, len(cb.base))
		}
		if columnar {
			return acc.foldCounts(cb, scratch)
		}
		for i := 0; i < cb.n; i++ {
			cb.materialize(i, scratch)
			if !acc.add(scratch) {
				return false
			}
		}
		return true
	}))
}

// countFold reports whether a grouping plan's batches can fold without
// materializing rows: an id key or none, and only non-DISTINCT COUNTs
// of * or a variable.
func countFold(cp *compiled) bool {
	if kind, _ := groupKeyOf(cp); kind == keyTerm {
		return false
	}
	for _, agg := range cp.aggregates {
		if agg.fn != "COUNT" || agg.distinct {
			return false
		}
		if _, isSlot := agg.arg.(*exprSlot); agg.arg != nil && !isSlot {
			return false
		}
	}
	return true
}

// column returns slot's values in cb: its column, or nil and the value
// the input binding holds for the whole batch.
func (cb *colBatch) column(slot int) ([]store.ID, store.ID) {
	if slot < len(cb.cols) && cb.cols[slot] != nil {
		return cb.cols[slot][:cb.n], store.NoID
	}
	return nil, cb.base[slot]
}

// foldCounts folds one batch under countFold. Whether a COUNT's
// argument is bound holds for the whole batch — a column holds only
// values the BGP bound, any other slot the input binding's value — so
// each COUNT adds every row's weight, or none, to the row's group.
// scratch receives a row only when it creates a group.
func (acc *groupAcc) foldCounts(cb *colBatch, scratch binding) bool {
	aggs := acc.cp.aggregates
	if cap(acc.counted) < len(aggs) {
		acc.counted = make([]bool, len(aggs))
	}
	counted := acc.counted[:len(aggs)]
	for j, agg := range aggs {
		counted[j] = true
		if agg.arg != nil {
			col, v := cb.column(agg.arg.(*exprSlot).slot)
			counted[j] = col != nil || v != store.NoID
		}
	}
	if acc.kind == keyNone {
		rows := int64(cb.n)
		if cb.w != nil {
			rows = 0
			for _, wt := range cb.w[:cb.n] {
				rows += wt
			}
		}
		for j := range aggs {
			if counted[j] {
				acc.groups[0].states[j].count += rows
			}
		}
		return true
	}
	keyCol, keyVal := cb.column(acc.slot)
	for i := 0; i < cb.n; i++ {
		id := keyVal
		if keyCol != nil {
			id = keyCol[i]
		}
		gd := acc.lookupID(id)
		if gd == nil {
			cb.materialize(i, scratch)
			gd = acc.idGroup(id, scratch)
		}
		if gd == nil {
			return false
		}
		for j := range aggs {
			if counted[j] {
				gd.states[j].count += cb.weight(i)
			}
		}
	}
	return true
}
