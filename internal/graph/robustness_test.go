package graph

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/pgrdf"
)

func TestProjectCanceledContext(t *testing.T) {
	g := randomGraph(t, 50, 100, 300)
	st, names := loadScheme(t, g, pgrdf.NG)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Project(ctx, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG}, Budget{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if n := st.OpenCursors(); n != 0 {
		t.Fatalf("leaked %d cursors", n)
	}
}

func TestProjectExpiredDeadline(t *testing.T) {
	g := randomGraph(t, 51, 100, 300)
	st, names := loadScheme(t, g, pgrdf.NG)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Project(ctx, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG}, Budget{})
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("err = %v, want guard.ErrTimeout", err)
	}
}

func TestProjectBudgetExceeded(t *testing.T) {
	g := randomGraph(t, 52, 400, 2000)
	st, names := loadScheme(t, g, pgrdf.NG)
	_, err := Project(context.Background(), st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG}, Budget{MaxWork: 100})
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
	if n := st.OpenCursors(); n != 0 {
		t.Fatalf("leaked %d cursors on abort", n)
	}
}

// TestAlgorithmsBudgetMidIteration sizes MaxWork so the budget trips
// after the run is already iterating — every algorithm must surface
// guard.ErrBudgetExceeded from inside a morsel phase, at any parallelism,
// deterministically.
func TestAlgorithmsBudgetMidIteration(t *testing.T) {
	g := randomGraph(t, 53, 3000, 12000)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	// One PageRank iteration costs > n work units; this allows roughly
	// one and a half phases.
	budget := Budget{MaxWork: int64(cs.NumVertices()) * 3 / 2}
	for _, par := range []int{1, 4} {
		r := Runner{Parallelism: par, Budget: budget}
		if _, err := r.PageRank(context.Background(), cs, PageRankOptions{}); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("par %d: PageRank err = %v, want guard.ErrBudgetExceeded", par, err)
		}
		if _, err := r.WCC(context.Background(), cs); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("par %d: WCC err = %v, want guard.ErrBudgetExceeded", par, err)
		}
		if _, err := r.Triangles(context.Background(), cs); !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("par %d: Triangles err = %v, want guard.ErrBudgetExceeded", par, err)
		}
	}
}

func TestAlgorithmsCanceledContext(t *testing.T) {
	g := randomGraph(t, 54, 500, 2000)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Runner{Parallelism: 4}
	if _, err := r.PageRank(ctx, cs, PageRankOptions{}); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("PageRank err = %v, want guard.ErrCanceled", err)
	}
	if _, err := r.WCC(ctx, cs); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("WCC err = %v, want guard.ErrCanceled", err)
	}
	if _, err := r.Triangles(ctx, cs); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("Triangles err = %v, want guard.ErrCanceled", err)
	}
}

// TestAlgorithmsCancellationMidIteration cancels the context from a
// goroutine the first morsel unblocks, proving workers observe
// cancellation between morsels rather than running to completion.
func TestAlgorithmsCancellationMidIteration(t *testing.T) {
	g := randomGraph(t, 55, 4000, 16000)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	r := Runner{Parallelism: 4}
	// With MaxIterations far beyond convergence and no tolerance exit,
	// only cancellation can end the run early.
	_, err := r.PageRank(ctx, cs, PageRankOptions{MaxIterations: 1_000_000, Tolerance: -1})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

func TestRunnerTimeoutBudget(t *testing.T) {
	g := randomGraph(t, 56, 3000, 12000)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	r := Runner{Parallelism: 2, Budget: Budget{Timeout: time.Microsecond}}
	_, err := r.PageRank(context.Background(), cs, PageRankOptions{MaxIterations: 1_000_000, Tolerance: -1})
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("err = %v, want guard.ErrTimeout", err)
	}
}
