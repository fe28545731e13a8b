package sparql

import (
	"sync"

	"repro/internal/store"
)

// estCacheLimit bounds the estimate cache; past it the map is dropped
// wholesale (estimates are cheap to recompute, the cache only shaves
// repeated index probes off hot plan-ordering paths).
const estCacheLimit = 4096

// estCache memoizes the store's cardinality estimates for fully-bound
// patterns, which the greedy join-order optimizer probes on every BGP
// resolve. Entries are keyed to the version of the view they were
// computed on: any successful Update advances it, so the first estimate
// of a query pinned after a write discards the stale generation and
// plans re-order to the new selectivities (the bulk-insert regression
// in update_test.go).
type estCache struct {
	mu sync.Mutex
	//pgrdf:guardedby mu
	version uint64
	//pgrdf:guardedby mu
	m map[store.Pattern]int
}

// estimate returns view.EstimateCount(p), cached within one store
// version. The cache follows the newest version asking: a query still
// running on an older view computes its own estimates.
func (c *estCache) estimate(view *store.View, p store.Pattern) int {
	v := view.Version
	c.mu.Lock()
	if c.m == nil || c.version < v {
		c.m = make(map[store.Pattern]int)
		c.version = v
	}
	if n, ok := c.m[p]; ok && c.version == v {
		c.mu.Unlock()
		return n
	}
	c.mu.Unlock()

	n := view.EstimateCount(p)

	c.mu.Lock()
	if c.version == v {
		if len(c.m) >= estCacheLimit {
			c.m = make(map[store.Pattern]int)
		}
		c.m[p] = n
	}
	c.mu.Unlock()
	return n
}
