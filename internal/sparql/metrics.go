package sparql

// Engine-level query metrics (DESIGN.md §11): cheap atomic counters
// fed by every *Context entry point and snapshotted by the HTTP
// /metrics endpoint. No sampling, no locks on the hot path.

import (
	"sync/atomic"
	"time"
)

// formUpdate extends the QueryForm space with updates for metric
// labelling (QueryForm itself only covers the four query forms).
const formUpdate = int(FormDescribe) + 1

var formNames = [...]string{"select", "ask", "construct", "describe", "update"}

// latencyBucketsSeconds are the histogram upper bounds; an implicit
// +Inf bucket follows. Chosen to straddle the paper's EQ1–EQ12 range
// from sub-millisecond point lookups to multi-second traversals.
var latencyBucketsSeconds = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// formMetrics holds one query form's counters. Buckets are
// non-cumulative internally (each observation increments exactly one)
// and are converted to the cumulative Prometheus convention at
// snapshot time.
type formMetrics struct {
	queries atomic.Int64
	errors  atomic.Int64
	durSum  atomic.Int64 // total nanoseconds
	buckets [len(latencyBucketsSeconds) + 1]atomic.Int64
}

type queryMetrics struct {
	forms  [formUpdate + 1]formMetrics
	slow   atomic.Int64 // queries over the slow-query threshold
	parses atomic.Int64 // query texts parsed (plan-cache hits parse none)
}

func (m *queryMetrics) observe(form int, d time.Duration, err error) {
	if form < 0 || form >= len(m.forms) {
		return
	}
	fm := &m.forms[form]
	fm.queries.Add(1)
	if err != nil {
		fm.errors.Add(1)
	}
	fm.durSum.Add(int64(d))
	secs := d.Seconds()
	i := 0
	for ; i < len(latencyBucketsSeconds); i++ {
		if secs <= latencyBucketsSeconds[i] {
			break
		}
	}
	fm.buckets[i].Add(1)
}

// LatencyBucket is one cumulative histogram bucket: Count observations
// took at most LE seconds (LE is +Inf for the final bucket).
type LatencyBucket struct {
	LE    float64
	Count int64
}

// FormMetricsSnapshot is the point-in-time view of one query form.
type FormMetricsSnapshot struct {
	Form        string
	Queries     int64
	Errors      int64
	DurationSum float64 // seconds
	Buckets     []LatencyBucket
}

// PlanCacheStats is the point-in-time view of the compiled-plan cache.
type PlanCacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Evictions int64
}

// MetricsSnapshot aggregates everything the /metrics endpoint exports
// from the engine.
type MetricsSnapshot struct {
	Forms       []FormMetricsSnapshot
	SlowQueries int64
	// Parses counts query texts parsed; a SELECT served from the plan
	// cache through ExecContext parses nothing.
	Parses    int64
	PlanCache PlanCacheStats
}

// MetricsSnapshot returns the engine's cumulative query metrics.
func (e *Engine) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		SlowQueries: e.metrics.slow.Load(),
		Parses:      e.metrics.parses.Load(),
		PlanCache:   e.PlanCacheStats(),
	}
	for f := range e.metrics.forms {
		fm := &e.metrics.forms[f]
		fs := FormMetricsSnapshot{
			Form:        formNames[f],
			Queries:     fm.queries.Load(),
			Errors:      fm.errors.Load(),
			DurationSum: time.Duration(fm.durSum.Load()).Seconds(),
		}
		cum := int64(0)
		for i := range fm.buckets {
			cum += fm.buckets[i].Load()
			le := float64(0)
			if i < len(latencyBucketsSeconds) {
				le = latencyBucketsSeconds[i]
			} else {
				le = -1 // +Inf marker; renderers print "+Inf"
			}
			fs.Buckets = append(fs.Buckets, LatencyBucket{LE: le, Count: cum})
		}
		snap.Forms = append(snap.Forms, fs)
	}
	return snap
}
