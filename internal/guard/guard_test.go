package guard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFirstViolationLatches races eight workers ticking one shared
// guard past its budget: every worker stops, the latched error is the
// budget violation, and a later cancellation does not replace it.
func TestFirstViolationLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, stop, err := Start(ctx, Budget{MaxWork: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var wg sync.WaitGroup
	var ticked atomic.Int64
	seen := make([]*Error, 8)
	for i := range seen {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for g.TickN(3) {
				ticked.Add(3)
			}
			seen[i] = g.err.Load()
		}(i)
	}
	wg.Wait()

	first := g.err.Load()
	if !errors.Is(first, ErrBudgetExceeded) {
		t.Fatalf("latched %v, want ErrBudgetExceeded", first)
	}
	for i, e := range seen {
		if e != first {
			t.Fatalf("worker %d saw %v, want the one latched error %v", i, e, first)
		}
	}
	if n := ticked.Load(); n > 10_000 {
		t.Fatalf("%d units were accepted past a budget of 10000", n)
	}
	cancel()
	if g.TickN(1) || g.Poll() || g.CheckRows(0) {
		t.Fatal("a latched guard accepted more work")
	}
	for i := 0; i < 3*pollInterval; i++ {
		g.Poll()
	}
	if g.err.Load() != first {
		t.Fatalf("cancellation replaced the first violation: %v", g.Err())
	}
}

// countingCtx counts how often the guard looks at the done channel.
type countingCtx struct {
	context.Context
	dones atomic.Int64
}

func (c *countingCtx) Done() <-chan struct{} {
	c.dones.Add(1)
	return c.Context.Done()
}

// TestTickNPollsOncePerCrossing: a batch that crosses one or more
// multiples of pollInterval checks the context exactly once, and one
// that crosses none does not check it.
func TestTickNPollsOncePerCrossing(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &countingCtx{Context: parent}
	g, stop, err := Start(ctx, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	steps := []struct {
		n     int
		polls int64
	}{
		{pollInterval - 1, 0}, // 255: below the first boundary
		{1, 1},                // 256: lands on it
		{pollInterval - 1, 0}, // 511
		{2, 1},                // 513: crosses 512
		{3 * pollInterval, 1}, // 1281: crosses 768, 1024 and 1280 in one batch
		{0, 0},
	}
	for i, s := range steps {
		before := ctx.dones.Load()
		if !g.TickN(s.n) {
			t.Fatalf("step %d: TickN(%d) stopped a live guard", i, s.n)
		}
		if got := ctx.dones.Load() - before; got != s.polls {
			t.Fatalf("step %d: TickN(%d) polled the context %d times, want %d", i, s.n, got, s.polls)
		}
	}

	// Poll counts one event per call on the same counter.
	before := ctx.dones.Load()
	for i := 0; i < pollInterval; i++ {
		g.Poll()
	}
	if got := ctx.dones.Load() - before; got != 1 {
		t.Fatalf("%d Polls checked the context %d times, want 1", pollInterval, got)
	}

	cancel()
	for g.TickN(1) {
	}
	if !errors.Is(g.Err(), ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled after cancel", g.Err())
	}
}

// TestNilGuardIsInert: a request without limits or a cancellable
// context gets no guard, and a nil guard accepts everything.
func TestNilGuardIsInert(t *testing.T) {
	g, stop, err := Start(context.Background(), Budget{})
	if err != nil || g != nil {
		t.Fatalf("Start(Background, Budget{}) = %v, %v; want a nil guard", g, err)
	}
	stop()
	if !g.TickN(1<<30) || !g.Poll() || !g.CheckRows(1<<30) || g.Err() != nil {
		t.Fatal("nil guard is not inert")
	}
}

// TestStartFailsDeadContext: a canceled or expired context fails before
// any work, with the kind that matches its cause.
func TestStartFailsDeadContext(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, ErrCanceled},
		{"expired", expired, ErrTimeout},
	} {
		g, stop, err := Start(c.ctx, Budget{MaxWork: 1})
		if g != nil || stop != nil || !errors.Is(err, c.want) {
			t.Fatalf("%s: Start = %v, %v; want no guard and %v", c.name, g, err, c.want)
		}
		var ge *Error
		if !errors.As(err, &ge) {
			t.Fatalf("%s: err %T is not *Error", c.name, err)
		}
	}
}

// TestEarlierDeadlineWins: Budget.Timeout shortens a later caller
// deadline and never extends an earlier one.
func TestEarlierDeadlineWins(t *testing.T) {
	far, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	g, stop, err := Start(far, Budget{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if dl, ok := g.ctx.Deadline(); !ok || time.Until(dl) > 50*time.Millisecond {
		t.Fatalf("deadline %v: Budget.Timeout did not shorten the caller's hour", time.Until(dl))
	}

	near, cancel3 := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel3()
	want, _ := near.Deadline()
	g, stop2, err := Start(near, Budget{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if dl, _ := g.ctx.Deadline(); !dl.Equal(want) {
		t.Fatalf("deadline %v, want the caller's earlier %v", dl, want)
	}
}

// TestCheckRows latches the row cap like any other violation.
func TestCheckRows(t *testing.T) {
	g, stop, err := Start(context.Background(), Budget{MaxRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if !g.CheckRows(5) {
		t.Fatal("5 rows rejected under a cap of 5")
	}
	if g.CheckRows(6) || !errors.Is(g.Err(), ErrBudgetExceeded) {
		t.Fatalf("6 rows under a cap of 5: err = %v", g.Err())
	}
	if g.CheckRows(0) {
		t.Fatal("CheckRows accepted rows after the cap latched")
	}
}

// TestRecover turns a panic into an ErrInternal carrying the stack.
func TestRecover(t *testing.T) {
	err := func() (err error) {
		defer Recover(&err)
		panic("boom")
	}()
	var ge *Error
	if !errors.Is(err, ErrInternal) || !errors.As(err, &ge) || ge.Stack == "" {
		t.Fatalf("err = %#v, want an ErrInternal *Error with a stack", err)
	}
}
