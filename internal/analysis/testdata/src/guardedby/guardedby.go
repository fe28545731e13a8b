// Package guardedbytest exercises the guardedby analyzer: lock-
// discipline contracts declared with //pgrdf:guardedby and
// //pgrdf:locks.
package guardedbytest

import "sync"

type counter struct {
	mu sync.Mutex
	//pgrdf:guardedby mu
	n int
}

// --- failing cases ---------------------------------------------------

func badRead(c *counter) int {
	return c.n // want "c.n is read without c.mu held"
}

func badWrite(c *counter) {
	c.n = 1 // want "c.n is written without c.mu write-held"
}

func badIncrement(c *counter) {
	c.n++ // want "c.n is written without c.mu write-held"
}

func badAfterUnlock(c *counter) int {
	c.mu.Lock()
	c.n = 7
	c.mu.Unlock()
	return c.n // want "c.n is read without c.mu held"
}

// --- fixed counterparts ----------------------------------------------

func goodRead(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func goodWrite(c *counter) {
	c.mu.Lock()
	c.n = 1
	c.mu.Unlock()
}

// goodBranches exercises the branch-aware walker: an early unlock on
// one path must not poison the other, and accesses after converging
// paths are judged by the intersection of the branch states.
func goodBranches(c *counter, flip bool) int {
	c.mu.Lock()
	if flip {
		c.n++
		c.mu.Unlock()
		return 0
	}
	v := c.n
	c.mu.Unlock()
	return v
}

func badAfterMerge(c *counter, flip bool) {
	c.mu.Lock()
	if flip {
		c.mu.Unlock() // lock no longer held on every path below
	}
	c.n = 2 // want "c.n is written without c.mu write-held"
	if !flip {
		c.mu.Unlock()
	}
}

// --- RWMutex: RLock suffices for reads, not writes -------------------

type table struct {
	mu sync.RWMutex
	//pgrdf:guardedby mu
	m map[string]int
}

func rlockRead(t *table, k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

func rlockWrite(t *table, k string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.m[k] = 1 // want "only t.mu.RLock is held"
}

func lockedDelete(t *table, k string) {
	t.mu.Lock()
	delete(t.m, k)
	t.mu.Unlock()
}

func unlockedDelete(t *table, k string) {
	delete(t.m, k) // want "t.m is written without t.mu write-held"
}

// --- //pgrdf:locks: callee declares, callers are checked -------------

//pgrdf:locks mu
func (t *table) growLocked() {
	t.m = make(map[string]int)
}

func callerHolds(t *table) {
	t.mu.Lock()
	t.growLocked()
	t.mu.Unlock()
}

func callerForgets(t *table) {
	t.growLocked() // want "call to growLocked requires t.mu held"
}

//pgrdf:locks t.mu
func resetParam(t *table) {
	t.m = nil
}

func paramCallerHolds(t *table) {
	t.mu.Lock()
	resetParam(t)
	t.mu.Unlock()
}

func paramCallerForgets(t *table) {
	resetParam(t) // want "call to resetParam requires t.mu held"
}

// --- fresh objects are exclusively owned -----------------------------

func construct() *table {
	t := &table{}
	t.m = make(map[string]int) // fresh local: no lock needed
	t.growLocked()             // fresh local: callee contract waived
	return t
}

func constructVar() counter {
	var c counter
	c.n = 41 // zero value owned by this function
	c.n++
	return c
}

// --- goroutines never inherit the spawner's critical section ---------

func spawnLoses(c *counter, done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = 1 // held here...
	go func() {
		c.n = 2 // want "c.n is written without c.mu write-held"
		close(done)
	}()
	<-done
}

// --- justified suppression -------------------------------------------

func suppressed(c *counter) int {
	//pgrdfvet:ignore guardedby -- single-goroutine fixture: no writer exists while this reads
	return c.n
}

// --- annotation validation -------------------------------------------

type badAnno struct {
	//pgrdf:guardedby missing
	x int // want "no mutex field \"missing\""
}

//pgrdf:guardedby // want "malformed pgrdf annotation"
type unannotated struct{ y int }

func useFields(b *badAnno, u *unannotated) int { return b.x + u.y }

// --- callbacks under a lock ------------------------------------------

// rows is ROADMAP item 1 reduced: a store whose batch scan holds its
// read lock across the callback, and an executor whose callback scans
// the same store again. A writer queued between the two RLocks parks
// both for ever.
type rows struct {
	mu sync.RWMutex
	//pgrdf:guardedby mu
	data []int
}

func (s *rows) badScan(fn func(int) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.data {
		if !fn(v) { // want "fn runs with s.mu held"
			return
		}
	}
}

// badScanVia hides the call one level down; the annotated helper makes
// the pass-through visible.
func (s *rows) badScanVia(fn func(int) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scanLocked(fn) // want "fn runs with s.mu held"
}

//pgrdf:locks mu
//pgrdf:callback-under mu
func (s *rows) scanLocked(fn func(int) bool) {
	for _, v := range s.data {
		if !fn(v) {
			return
		}
	}
}

// ScanBatch owns up to it, so its call sites are checked.
//
//pgrdf:callback-under mu
func (s *rows) ScanBatch(fn func(int) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scanLocked(fn)
}

func (s *rows) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

type exec struct{ st *rows }

// step is vecExec.step: each level's callback runs the next level,
// which scans again.
func (e *exec) step(depth int) {
	if depth == 0 {
		return
	}
	e.st.ScanBatch(func(int) bool {
		e.step(depth - 1) // want "callback passed to ScanBatch runs with rows.mu held and this call acquires it again"
		return true
	})
}

func badDirectReentry(s *rows) int {
	n := 0
	s.ScanBatch(func(int) bool {
		n += s.Len() // want "callback passed to ScanBatch runs with rows.mu held"
		return true
	})
	return n
}

// --- fixed counterparts ----------------------------------------------

// goodScan copies under the lock and runs the callback after it.
func (s *rows) goodScan(fn func(int) bool) {
	s.mu.RLock()
	snapshot := append([]int(nil), s.data...)
	s.mu.RUnlock()
	for _, v := range snapshot {
		if !fn(v) {
			return
		}
	}
}

func goodCallback(s *rows) int {
	n := 0
	s.ScanBatch(func(v int) bool {
		n += v
		return true
	})
	return n + s.Len()
}

// --- suppressed ------------------------------------------------------

func suppressedReentry(a, b *rows) int {
	n := 0
	a.ScanBatch(func(int) bool {
		//pgrdfvet:ignore guardedby -- b is a different store: its lock is not the one the callback runs under
		n += b.Len()
		return true
	})
	return n
}
