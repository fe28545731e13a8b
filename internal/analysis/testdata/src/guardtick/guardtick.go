// Package guardticktest exercises the guardtick analyzer. It is
// analyzed under the import path repro/internal/sparql — the only
// package the analyzer patrols — with a stand-in guard type shaped
// like the engine's.
package guardticktest

import (
	"sync"

	"repro/internal/store"
)

type guard struct{ n int }

func (g *guard) tick() bool           { g.n++; return true }
func (g *guard) tickN(n int) bool     { g.n += n; return true }
func (g *guard) poll() bool           { return true }
func (g *guard) checkRows(n int) bool { return n >= 0 }

func badDirectScan(st *store.Store, p store.Pattern) int {
	n := 0
	st.Scan(p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n++
		return true
	})
	return n
}

func badForcedIndex(st *store.Store, p store.Pattern) error {
	return st.ScanIndex("PCSGM", p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		return true
	})
}

func badCursor(st *store.Store, p store.Pattern) int {
	c := st.Cursor(p) // want "store scan without a budget-guard tick"
	defer c.Close()
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	return n
}

func badViewScan(v *store.View, p store.Pattern) int {
	n := 0
	v.Scan(p, func(q store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n++
		return true
	})
	return n
}

func goodTickedScan(g *guard, st *store.Store, p store.Pattern) int {
	n := 0
	st.Scan(p, func(q store.IDQuad) bool {
		if !g.tick() {
			return false
		}
		n++
		return true
	})
	return n
}

func goodTickedCursor(g *guard, st *store.Store, p store.Pattern) int {
	c := st.Cursor(p)
	defer c.Close()
	n := 0
	for {
		q, ok := c.Next()
		if !ok || !g.tick() {
			break
		}
		_ = q
		n++
	}
	return n
}

func goodCheckRows(g *guard, st *store.Store, p store.Pattern) []store.IDQuad {
	var rows []store.IDQuad
	st.Scan(p, func(q store.IDQuad) bool {
		rows = append(rows, q)
		return g.checkRows(len(rows))
	})
	return rows
}

func badViewCursor(v *store.View, p store.Pattern) int {
	c := v.Cursor(p) // want "store scan without a budget-guard tick"
	defer c.Close()
	return c.Len()
}

// goodWorkerPool is the morsel-driven shape: worker goroutines drain
// the morsels of a pinned view and batch their budget accounting
// through tickN. One tickN call anywhere in the function counts as a
// tick.
func goodWorkerPool(g *guard, v *store.View, p store.Pattern) int {
	morsels := v.Morsels(p, 4)
	var (
		mu    sync.Mutex
		total int
		wg    sync.WaitGroup
	)
	for i := range morsels {
		wg.Add(1)
		go func(m *store.Morsel) {
			defer wg.Done()
			pending := 0
			m.ScanBatch(1024, func(run []store.IDQuad) bool {
				pending += len(run)
				return g.tickN(len(run))
			})
			mu.Lock()
			total += pending
			mu.Unlock()
		}(&morsels[i])
	}
	wg.Wait()
	return total
}

// goodViewScan pairs a scan of a pinned view with a per-row tick.
func goodViewScan(g *guard, v *store.View, p store.Pattern) int {
	n := 0
	v.Scan(p, func(q store.IDQuad) bool {
		if !g.tick() {
			return false
		}
		n++
		return true
	})
	return n
}

func badBatchScan(st *store.Store, p store.Pattern) int {
	n := 0
	st.ScanBatch(p, 1024, func(run []store.IDQuad) bool { // want "store scan without a budget-guard tick"
		n += len(run)
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

func badMorsels(v *store.View, p store.Pattern) int {
	n := 0
	for _, m := range v.Morsels(p, 4) { // want "store scan without a budget-guard tick"
		m.ScanBatch(1024, func(run []store.IDQuad) bool { // want "store scan without a budget-guard tick"
			n += len(run)
			return true
		})
	}
	return n
}

// goodBatchScan settles the budget with one tickN per batch — the
// vectorized executor's per-batch amortization of per-row ticks.
func goodBatchScan(g *guard, st *store.Store, p store.Pattern) int {
	n := 0
	st.ScanBatch(p, 1024, func(run []store.IDQuad) bool {
		if !g.tickN(len(run)) {
			return false
		}
		n += len(run)
		return true
	})
	return n
}

// goodMorsel drains one morsel, accumulating a pending count settled
// by tickN at each flush.
func goodMorsel(g *guard, m *store.Morsel) int {
	n, pending := 0, 0
	m.ScanBatch(1024, func(run []store.IDQuad) bool {
		pending += len(run)
		n += len(run)
		if pending >= 1024 {
			if !g.tickN(pending) {
				return false
			}
			pending = 0
		}
		return true
	})
	g.tickN(pending)
	return n
}

func suppressedMorsels(v *store.View, p store.Pattern) int {
	//pgrdfvet:ignore guardtick -- sizing the split for a plan estimate, not an execution read
	return len(v.Morsels(p, 8))
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
func goodSeek(g *guard, v *store.View, konst store.Pattern, keys []store.ID) int {
	sk := v.Seeker(v.SeekIndex([]store.Col{store.ColP, store.ColS}, store.ColC), konst)
	n := 0
	for _, k := range keys {
		p := konst
		p.S = k
		rows := sk.Seek(p)
		if !g.tickN(len(rows)) {
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

func suppressed(st *store.Store, p store.Pattern) int {
	// Plan-cardinality estimation runs outside query execution.
	n := 0
	//pgrdfvet:ignore guardtick -- planner-side row count, not an execution scan
	st.Scan(p, func(q store.IDQuad) bool { n++; return true })
	return n
}
