package store

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrInjectedFault is the base error carried by panics raised by a
// FaultInjector's forced scan failures; errors.Is matches it through
// the engine's panic recovery.
var ErrInjectedFault = errors.New("store: injected scan fault")

// InjectedFault is the panic value raised by a forced scan failure.
type InjectedFault struct{ Row int64 }

func (f InjectedFault) Error() string {
	return fmt.Sprintf("store: injected scan fault at row %d", f.Row)
}

func (f InjectedFault) Unwrap() error { return ErrInjectedFault }

// FaultInjector deterministically perturbs store reads so degradation
// behavior (slow disks, failing storage) is testable without real
// faults. It supports per-row scan latency and a forced failure after a
// fixed number of rows. All configuration is atomic, so tests can flip
// faults while queries are running; a store without an injector pays a
// single atomic pointer load per scan. No build tags: the hooks are
// always compiled in and nil-checked on the hot path.
type FaultInjector struct {
	scanned    atomic.Int64 // rows observed since creation/Reset
	delayEvery atomic.Int64 // stall every Nth row; 0 = off
	delayNs    atomic.Int64 // stall duration in nanoseconds
	failAfter  atomic.Int64 // panic once scanned exceeds this; <0 = off
}

// NewFaultInjector returns an injector with every fault disabled.
func NewFaultInjector() *FaultInjector {
	f := &FaultInjector{}
	f.failAfter.Store(-1)
	return f
}

// StallScans injects d of latency every Nth scanned row (every <= 0
// disables), modeling a slow storage layer. Scans hold no lock, so a
// stalled reader delays no writer.
func (f *FaultInjector) StallScans(every int, d time.Duration) {
	f.delayNs.Store(int64(d))
	f.delayEvery.Store(int64(every))
}

// FailScansAfter makes the injector panic with an InjectedFault once
// more than n further rows have been scanned (n < 0 disables). The
// guarded entry points recover the panic into a *guard.Error of kind
// guard.ErrInternal.
func (f *FaultInjector) FailScansAfter(n int) {
	if n >= 0 {
		n += int(f.scanned.Load())
	}
	f.failAfter.Store(int64(n))
}

// Reset disables all faults and zeroes the row counter.
func (f *FaultInjector) Reset() {
	f.delayEvery.Store(0)
	f.delayNs.Store(0)
	f.failAfter.Store(-1)
	f.scanned.Store(0)
}

// Scanned reports how many rows the injector has observed.
func (f *FaultInjector) Scanned() int64 { return f.scanned.Load() }

// observeRow is the per-row hook called from the store's scan loop.
func (f *FaultInjector) observeRow() {
	n := f.scanned.Add(1)
	if fa := f.failAfter.Load(); fa >= 0 && n > fa {
		panic(InjectedFault{Row: n})
	}
	if every := f.delayEvery.Load(); every > 0 && n%every == 0 {
		if d := f.delayNs.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
}

// SetFaultInjector installs (or, with nil, removes) the store's fault
// injector. Safe to call concurrently with readers.
func (s *Store) SetFaultInjector(f *FaultInjector) { s.fault.Store(f) }

// faultWrap wraps a batch callback so that an installed injector
// observes every row of a run before the callback sees the run.
func (s *Store) faultWrap(fn func([]IDQuad) bool) func([]IDQuad) bool {
	f := s.fault.Load()
	if f == nil {
		return fn
	}
	return func(run []IDQuad) bool {
		for range run {
			f.observeRow()
		}
		return fn(run)
	}
}
