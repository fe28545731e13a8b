// Package guardtest holds helpers for tests of code that runs under a
// guard.Guard.
package guardtest

import (
	"context"
	"sync/atomic"
)

// DoneAfter is a context whose Done channel closes on its limit-th call
// (0 = never); its parent is never canceled. The guard calls Done once when it
// starts and once per poll boundary its event counter crosses, so Calls
// counts how far a run got and limit picks where it is canceled.
type DoneAfter struct {
	context.Context
	limit int64
	calls atomic.Int64
	done  chan struct{}
}

// NewDoneAfter returns a DoneAfter over parent whose Done channel closes
// on its limit-th call.
func NewDoneAfter(parent context.Context, limit int64) *DoneAfter {
	return &DoneAfter{Context: parent, limit: limit, done: make(chan struct{})}
}

// Calls returns how many times Done has been called.
func (c *DoneAfter) Calls() int64 { return c.calls.Load() }

func (c *DoneAfter) Done() <-chan struct{} {
	if c.calls.Add(1) == c.limit {
		close(c.done)
	}
	return c.done
}

func (c *DoneAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}
