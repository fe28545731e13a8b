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

// readBeforeRLock is Engine.PlanCacheStats with its read hoisted above
// the RLock: a metrics scrape racing a plan compile.
func readBeforeRLock(t *table) int {
	n := len(t.m) // want "t.m is read without t.mu held"
	t.mu.RLock()
	defer t.mu.RUnlock()
	return n
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

// callAfterUnlock is Dict.internRows with its Unlock hoisted above the
// loop: the helper runs after the lock is released.
func callAfterUnlock(t *table) {
	t.mu.Lock()
	t.mu.Unlock()
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
