// Package guardticktest exercises the guardtick analyzer. It is
// analyzed under the import path repro/internal/sparql, one of the two
// packages the analyzer patrols, and ticks the shared *guard.Guard.
package guardticktest

import (
	"repro/internal/guard"
	"repro/internal/store"
)

// localGuard has the guard's method names but is not *guard.Guard:
// ticking it does not count.
type localGuard struct{ n int }

func (g *localGuard) TickN(n int) bool { g.n += n; return true }

// badDirectScan reads through the Store.Scan shorthand, which the
// analyzer patrols like a View scan.
func badDirectScan(st *store.Store, p store.Pattern) int {
	n := 0
	st.Scan(p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n++
		return true
	})
	return n
}

func badForcedIndex(v *store.View, p store.Pattern) error {
	return v.ScanIndex("PCSGM", p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		return true
	})
}

func badViewScan(v *store.View, p store.Pattern) int {
	n := 0
	v.Scan(p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n++
		return true
	})
	return n
}

func goodTickedScan(g *guard.Guard, st *store.Store, p store.Pattern) int {
	n := 0
	st.Scan(p, func(q store.IDQuad) bool {
		if !g.TickN(1) {
			return false
		}
		n++
		return true
	})
	return n
}

func goodCheckRows(g *guard.Guard, v *store.View, p store.Pattern) []store.IDQuad {
	var rows []store.IDQuad
	v.Scan(p, func(q store.IDQuad) bool {
		rows = append(rows, q)
		return g.CheckRows(len(rows))
	})
	return rows
}

// goodViewScan pairs a scan of a pinned view with a per-row tick.
func goodViewScan(g *guard.Guard, v *store.View, p store.Pattern) int {
	n := 0
	v.Scan(p, func(q store.IDQuad) bool {
		if !g.TickN(1) {
			return false
		}
		n++
		return true
	})
	return n
}

func badViewBatch(v *store.View, p store.Pattern) int {
	n := 0
	v.ScanBatch(p, 1024, func(run []store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n += len(run)
		return true
	})
	return n
}

// goodBatchScan settles the budget with one tickN per batch — the
// vectorized executor's per-batch amortization of per-row ticks.
func goodBatchScan(g *guard.Guard, v *store.View, p store.Pattern) int {
	n := 0
	v.ScanBatch(p, 1024, func(run []store.IDQuad) bool {
		if !g.TickN(len(run)) {
			return false
		}
		n += len(run)
		return true
	})
	return n
}

func suppressedSample(v *store.View, p store.Pattern) int {
	n := 0
	//pgrdfvet:ignore guardtick -- sizing a plan from the first run of rows, not an execution read
	v.ScanBatch(p, 64, func(run []store.IDQuad) bool {
		n = len(run)
		return false
	})
	return n
}

// badSeek reads seeked rows without charging them: the sorted
// intersection join's hole.
func badSeek(v *store.View, konst store.Pattern, keys []store.ID) int {
	sk := v.Seeker(v.SeekIndex([]store.Col{store.ColP, store.ColS}, store.ColC), konst)
	n := 0
	for _, k := range keys {
		p := konst
		p.S = k
		rows := sk.Seek(p) // want "store scan without a budget-guard tick"
		n += len(rows)
	}
	return n
}

// goodSeek settles the seeked rows with tickN per input key.
func goodSeek(g *guard.Guard, v *store.View, konst store.Pattern, keys []store.ID) int {
	sk := v.Seeker(v.SeekIndex([]store.Col{store.ColP, store.ColS}, store.ColC), konst)
	n := 0
	for _, k := range keys {
		p := konst
		p.S = k
		rows := sk.Seek(p)
		if !g.TickN(len(rows)) {
			break
		}
		n += len(rows)
	}
	return n
}

func suppressedSeek(v *store.View, konst store.Pattern) int {
	sk := v.Seeker(v.SeekIndex([]store.Col{store.ColP, store.ColS}, store.ColC), konst)
	//pgrdfvet:ignore guardtick -- sizing a range for a plan estimate, not an execution read
	return len(sk.Seek(konst))
}

func suppressed(v *store.View, p store.Pattern) int {
	// Plan-cardinality estimation runs outside query execution.
	n := 0
	//pgrdfvet:ignore guardtick -- planner-side row count, not an execution scan
	v.Scan(p, func(q store.IDQuad) bool { n++; return true })
	return n
}

// badLocalTick ticks a look-alike guard: the rows are still uncounted.
func badLocalTick(g *localGuard, v *store.View, p store.Pattern) int {
	n := 0
	v.Scan(p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n++
		return g.TickN(1)
	})
	return n
}

// goodPolledSeek polls between seeks, the path search's shape.
func goodPolledSeek(g *guard.Guard, v *store.View, konst store.Pattern, keys []store.ID) int {
	sk := v.Seeker(v.SeekIndex([]store.Col{store.ColP, store.ColS}, store.ColC), konst)
	n := 0
	for _, k := range keys {
		if !g.Poll() {
			break
		}
		p := konst
		p.S = k
		n += len(sk.Seek(p))
	}
	return n
}
