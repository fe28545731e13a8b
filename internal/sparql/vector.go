package sparql

// Batch-at-a-time BGP execution (DESIGN.md §15).
//
// A tuple-at-a-time join pays an interface dispatch, a guard tick and
// (when profiling) counter flushes per binding; at the paper's
// path-counting scale (EQ11d folds ~10^6 intermediate rows into one
// COUNT) that per-row overhead dominates the join work itself. The BGP
// driver pushes fixed-size columnar batches of store.ID vectors through
// the join instead:
//
//   - Scans pull contiguous runs from the store's batched scan API
//     (View.ScanBatch / Morsel.ScanBatch) and bind whole runs in tight
//     loops; the guard is charged once per run via tickN, and profile
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
// from the key and argument columns), and bgpOp.apply hands them row
// by row to the row operators (OPTIONAL, MINUS, BIND, row UNIONs...).

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
// tight MaxBindings budget) sees its first rows — and the guard its
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
	n     int          // rows
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
	cb.n = 0
}

// appendFrom appends one row, reading the column slots' values from b.
func (cb *colBatch) appendFrom(b binding) {
	for _, s := range cb.slots {
		cb.cols[s] = append(cb.cols[s], b[s])
	}
	cb.n++
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

// copyOwned returns a private copy of the batch (columns cloned, base
// shared), safe to retain past the producer's callback — the form
// parallel workers send through the merge channels.
func (cb *colBatch) copyOwned() *colBatch {
	c := &colBatch{base: cb.base, slots: cb.slots, cols: make([][]store.ID, len(cb.cols)), n: cb.n}
	for _, s := range cb.slots {
		c.cols[s] = append([]store.ID(nil), cb.cols[s][:cb.n]...)
	}
	return c
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
		st.invocations.Add(1)
		start := time.Now()
		var rows int64
		err := src(func(cb *colBatch) bool {
			rows += int64(cb.n)
			return yield(cb)
		})
		st.rowsOut.Add(rows)
		st.wall.Add(int64(time.Since(start)))
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
		for d := range vx.out {
			vx.out[d] = newColBatch(vx.width, vx.colSlots[d+1])
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
			for _, s := range in.slots {
				in.cols[s][w] = in.cols[s][i]
			}
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
	// and probe loops below poll again per run via tickN.
	if !ec.guard.poll() {
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
		sh.inputSeen[depth].Add(int64(in.n))
		return vx.intersect(depth, in, sh.intersect[depth])
	}
	rp := &sh.rps[sh.order[depth]]
	hs := &sh.hashes[depth]
	pst := sh.stepStat(depth)
	scratch := vx.scratch[depth]
	out := vx.out[depth]
	seen := sh.inputSeen[depth].Add(int64(in.n))

	// The adaptive NLJ→hash switch, decided once per input batch. Both
	// access paths emit rows in identical order, so where the switch
	// falls does not change the output (DESIGN.md §10).
	if !hs.built.Load() && !ec.noHashJoin && seen > int64(ec.hashMin) &&
		rp.estConst < 64*int(seen) {
		in.writeCols(0, scratch)
		sh.buildHash(depth, rp, scratch)
	}

	if hs.built.Load() {
		in.writeCols(0, scratch)
		usable := true
		//pgrdfvet:ignore guardedby -- keySlots is frozen before built.Store(true); built.Load() above is the publication barrier
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
	// charges batch up in pending and flush once per run (tickN is
	// budget-equivalent to per-row ticks); profile counters flush once
	// per input batch.
	stopped := false
	var scanned, emitted int64
	pending := 0
	for i := 0; i < in.n; i++ {
		in.writeCols(i, scratch)
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
				emitted++
				out.appendFrom(scratch)
				vx.undo[depth].revert(scratch)
				if out.n >= vx.cap {
					if !ec.guard.tickN(pending) {
						pending, stop = 0, true
						return false
					}
					pending = 0
					if !vx.step(depth+1, out) {
						stop = true
						return false
					}
					out.reset()
					vx.grow()
				}
			}
			if !ec.guard.tickN(pending) {
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
	if stopped {
		return false
	}
	if out.n > 0 {
		cont := vx.step(depth+1, out)
		out.reset()
		return cont
	}
	return true
}

// probeBatch joins one input batch against a built hash table.
func (vx *vecExec) probeBatch(depth int, in *colBatch, rp *resolvedPattern, hs *hashState, pst *profStage) bool {
	ec := vx.sh.ec
	scratch := vx.scratch[depth]
	out := vx.out[depth]
	var probes int64 // flushed in one atomic per input batch
	pending := 0
	stopped := false
	for i := 0; i < in.n; i++ {
		in.writeCols(i, scratch)
		var key [4]store.ID
		//pgrdfvet:ignore guardedby -- keySlots is frozen before built.Store(true); the caller's built.Load() is the publication barrier
		for k, slot := range hs.keySlots {
			key[k] = scratch[slot]
		}
		//pgrdfvet:ignore guardedby -- table is immutable after built.Store(true); the caller's built.Load() is the publication barrier
		for _, q := range hs.table[key] {
			// Non-key bound positions are validated by bindQuad.
			if !rp.bindQuad(scratch, q, &vx.undo[depth]) {
				continue
			}
			probes++
			pending++
			out.appendFrom(scratch)
			vx.undo[depth].revert(scratch)
			if out.n >= vx.cap {
				// Probed rows bypass the scan guard, so charge them
				// here — batched, like the scan path.
				if !ec.guard.tickN(pending) {
					pending, stopped = 0, true
					break
				}
				pending = 0
				if !vx.step(depth+1, out) {
					stopped = true
					break
				}
				out.reset()
				vx.grow()
			}
		}
		if stopped {
			break
		}
	}
	if !stopped && !ec.guard.tickN(pending) {
		stopped = true
	}
	pst.addProbes(probes)
	if stopped {
		return false
	}
	if out.n > 0 {
		cont := vx.step(depth+1, out)
		out.reset()
		return cont
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

// applyBatch is the BGP join: per input binding it fans the first
// step's scan out to morsel workers when that pays (tryParallelBatch),
// and otherwise drives the join serially, emitting batches. The shared
// state and the serial driver's buffers are built once and reused by
// every run — a BGP nested under OPTIONAL, MINUS or UNION runs once per
// outer row.
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
				sh.bgpStage.rowsIn.Add(1)
			}
			if ec.parallelism > 1 {
				if handled, cont := sh.tryParallelBatch(b, yield); handled {
					return cont
				}
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
					for _, s := range cb.slots {
						cb.cols[s][w] = cb.cols[s][i]
					}
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

// batchNote is EXPLAIN's annotation of an operator that runs columnar.
func batchNote(batch bool) string {
	if batch {
		return ", batch"
	}
	return ""
}

// orderInsensitive reports whether a plan's results cannot depend on
// the order its solutions are produced in: a single implicit group
// whose aggregates are order-insensitive folds. COUNT, MIN and MAX
// qualify (their DISTINCT variants too); SUM and AVG do not (float
// accumulation order changes the result), nor do SAMPLE and
// GROUP_CONCAT (they pick by arrival order). When it holds, the
// parallel batch executor fans morsel results in by completion order
// instead of paying the order-preserving merge — the EQ11d fix
// (DESIGN.md §15).
func orderInsensitive(cp *compiled) bool {
	if !cp.grouping || len(cp.groupBy) != 0 || len(cp.orderBy) != 0 {
		return false
	}
	for _, agg := range cp.aggregates {
		switch agg.fn {
		case "COUNT", "MIN", "MAX":
		default:
			return false
		}
	}
	return true
}

// addBatches folds a batch source into the groups. When every
// aggregate is a plain COUNT(*) or COUNT(?v) and the key is not an
// expression (countFold), batches fold straight from their key and
// argument columns; otherwise each row is materialized and added. Both
// create groups in first-seen order, through the same row cap.
func (acc *groupAcc) addBatches(bs batchSource) error {
	ec := acc.ec
	var scratch binding
	columnar := acc.countFold()
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

// countFold reports whether batches can fold without materializing
// rows: an id key or none, and only non-DISTINCT COUNTs of * or a
// variable.
func (acc *groupAcc) countFold() bool {
	if acc.kind == keyTerm {
		return false
	}
	for _, agg := range acc.cp.aggregates {
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
// each COUNT adds one for every row, or for none, to the row's group.
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
		for j := range aggs {
			if counted[j] {
				acc.groups[0].states[j].count += int64(cb.n)
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
				gd.states[j].count++
			}
		}
	}
	return true
}
