// Package guard is the execution envelope shared by the SPARQL engine
// and the graph-analytics runtime (DESIGN.md §8): a per-request Budget,
// a cooperative Guard that hot loops tick and poll, panic recovery, and
// the one error taxonomy both report and the HTTP tier maps.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Error kinds distinguishing why a request was aborted. Test with
// errors.Is against the error a guarded entry point returns.
var (
	// ErrTimeout: the context deadline (or Budget.Timeout) expired.
	ErrTimeout = errors.New("deadline exceeded")
	// ErrBudgetExceeded: the request consumed more rows or work units
	// than its budget allows.
	ErrBudgetExceeded = errors.New("resource budget exceeded")
	// ErrCanceled: the context was canceled by the caller.
	ErrCanceled = errors.New("canceled")
	// ErrInternal: an entry point recovered from an internal panic.
	ErrInternal = errors.New("internal error")
)

// Error is the structured error returned when a request is stopped by
// a guardrail or an internal failure. Kind is one of the sentinel
// errors above and is exposed through errors.Is/Unwrap.
type Error struct {
	Kind error
	Msg  string
	// Stack holds the recovered goroutine stack when Kind is
	// ErrInternal (panic recovery); empty otherwise.
	Stack string
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return e.Kind.Error()
	}
	return e.Msg
}

func (e *Error) Unwrap() error { return e.Kind }

// Budget bounds the resources one request may consume. The zero value
// imposes no limits.
type Budget struct {
	// Timeout is the wall-clock deadline applied when the caller's
	// context does not already carry an earlier one. 0 = none.
	Timeout time.Duration
	// MaxRows caps the rows a query may materialize (result rows for
	// SELECT, groups for aggregation, quads for CONSTRUCT/DESCRIBE and
	// update templates). 0 = unlimited.
	MaxRows int
	// MaxWork caps the work units a request may consume: intermediate
	// bindings produced by a query's scans and probes, quads drained by
	// a graph projection, vertices and edges touched by an algorithm.
	// It is the knob that stops a runaway cross join or iteration long
	// before it materializes anything. 0 = unlimited.
	MaxWork int64
}

// pollInterval is how many guard events pass between checks of the
// context's done channel, keeping hot loops at one atomic add per
// event batch in the common case.
const pollInterval = 256

// Guard enforces a Budget cooperatively. Scans and hot loops tick it
// with the work they do; searches and morsel loops poll it between
// steps. The first violation latches and every later tick or poll fails
// fast, so all workers unwind promptly. A nil *Guard is inert.
//
// All counters are atomic: one guard is shared by every worker of a
// parallel request, so workers tick and poll it concurrently without
// extra locking, and the first violation from any worker stops all of
// them. With one worker the counters see exactly the serial sequence of
// events, so budget semantics do not depend on parallelism.
type Guard struct {
	ctx     context.Context
	maxWork int64
	maxRows int
	work    atomic.Int64
	events  atomic.Uint64
	err     atomic.Pointer[Error]
}

// Start applies b.Timeout to ctx (unless the caller's deadline is
// already earlier), fails an already-dead context before any work so a
// canceled call fails deterministically, and returns the request's
// guard, which carries the derived context. The guard is nil (no
// overhead) when the context can never fire and b imposes no limit.
// cancel is never nil on success; the caller defers it.
func Start(ctx context.Context, b Budget) (g *Guard, cancel context.CancelFunc, err error) {
	cancel = func() {}
	if b.Timeout > 0 {
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > b.Timeout {
			ctx, cancel = context.WithTimeout(ctx, b.Timeout)
		}
	}
	if err := ctx.Err(); err != nil {
		cancel()
		return nil, nil, ctxError(err)
	}
	if ctx.Done() == nil && b.MaxWork <= 0 && b.MaxRows <= 0 {
		return nil, cancel, nil
	}
	return &Guard{ctx: ctx, maxWork: b.MaxWork, maxRows: b.MaxRows}, cancel, nil
}

// fail latches the first violation; later racers lose the CAS and are
// dropped, preserving the serial "first error wins" behavior.
func (g *Guard) fail(e *Error) {
	g.err.CompareAndSwap(nil, e)
}

// TickN records n work units at once — per row, or per batch so that
// parallel workers do not serialize on the shared counter. Ticking n
// units in one call is equivalent to n ticks of one for budget purposes;
// the context is still polled at every pollInterval boundary the batch
// crosses. It reports false when the request must stop.
func (g *Guard) TickN(n int) bool {
	if g == nil {
		return true
	}
	if g.err.Load() != nil {
		return false
	}
	if n <= 0 {
		return true
	}
	total := g.work.Add(int64(n))
	if g.maxWork > 0 && total > g.maxWork {
		g.fail(&Error{Kind: ErrBudgetExceeded,
			Msg: fmt.Sprintf("exceeded the budget of %d work units", g.maxWork)})
		return false
	}
	return g.pollEvery(n)
}

// Poll checks the context every pollInterval guard events without
// charging work. It reports false when the request must stop.
func (g *Guard) Poll() bool {
	if g == nil {
		return true
	}
	if g.err.Load() != nil {
		return false
	}
	return g.pollEvery(1)
}

// pollEvery advances the event counter by n and checks the context's
// done channel when the counter crosses a pollInterval boundary.
func (g *Guard) pollEvery(n int) bool {
	now := g.events.Add(uint64(n))
	if now/pollInterval == (now-uint64(n))/pollInterval {
		return true
	}
	select {
	case <-g.ctx.Done():
		g.fail(ctxError(g.ctx.Err()))
		return false
	default:
		return true
	}
}

// CheckRows enforces MaxRows against a materialized row count. It
// reports false when the request must stop.
func (g *Guard) CheckRows(n int) bool {
	if g == nil || g.maxRows <= 0 || n <= g.maxRows {
		return g.Err() == nil
	}
	g.fail(&Error{Kind: ErrBudgetExceeded,
		Msg: fmt.Sprintf("exceeded the budget of %d result rows", g.maxRows)})
	return false
}

// Err returns the latched violation, if any.
func (g *Guard) Err() error {
	if g == nil {
		return nil
	}
	if e := g.err.Load(); e != nil {
		return e
	}
	return nil
}

func ctxError(err error) *Error {
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Kind: ErrTimeout}
	}
	return &Error{Kind: ErrCanceled}
}

// Recover converts a panic into an *Error of kind ErrInternal carrying
// the goroutine stack. Every guarded entry point defers it, so a
// malformed plan, a corrupt projection or an injected fault degrades
// into an error, not a crash.
func Recover(err *error) {
	if r := recover(); r != nil {
		*err = &Error{
			Kind:  ErrInternal,
			Msg:   fmt.Sprintf("internal error: %v", r),
			Stack: string(debug.Stack()),
		}
	}
}
