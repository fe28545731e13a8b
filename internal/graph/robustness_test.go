package graph

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/guard/guardtest"
	"repro/internal/pgrdf"
)

func TestProjectCanceledContext(t *testing.T) {
	g := randomGraph(t, 50, 100, 300)
	st, names := loadScheme(t, g, pgrdf.NG)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	_, err := Project(ctx, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG}, Budget{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if after := guardtest.Goroutines(before); after > before {
		t.Fatalf("%d goroutines before the projection, %d after", before, after)
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
	before := runtime.NumGoroutine()
	_, err := Project(context.Background(), st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG}, Budget{MaxWork: 100})
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want guard.ErrBudgetExceeded", err)
	}
	if after := guardtest.Goroutines(before); after > before {
		t.Fatalf("%d goroutines before the projection, %d after the abort", before, after)
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

// triangleCharges is what Triangles charges MaxWork, derived from
// brute-force neighbor sets: the orientation reads every out- and
// in-entry, then every undirected entry, plus one unit per vertex in
// each of its two phases; the count phase sets and clears one mark per
// oriented entry, looks up every entry of each oriented neighbor's row,
// and charges one unit per vertex.
func triangleCharges(cs *CSR) (orient, count int64) {
	n := cs.NumVertices()
	und := undirectedSets(cs)
	outranks := func(u, v uint32) bool {
		du, dv := len(und[u]), len(und[v])
		return du > dv || du == dv && u > v
	}
	orow := make([]int64, n)
	for v := 0; v < n; v++ {
		for u := range und[v] {
			if outranks(u, uint32(v)) {
				orow[v]++
			}
		}
		orient += int64(len(und[v]))
	}
	orient += 2*int64(cs.NumEdges()) + 2*int64(n)
	for u := 0; u < n; u++ {
		count += 2*orow[u] + 1
		for v := range und[u] {
			if outranks(v, uint32(u)) {
				count += orow[v]
			}
		}
	}
	return orient, count
}

// TestTrianglesBudgetInCountPhase pins Triangles' MaxWork charges to
// triangleCharges — the full charge passes and one unit less trips —
// and then sizes MaxWork between the orientation's total and the full
// run's, which the orientation cannot reach: the budget trips inside the
// count phase, at one worker and at four.
func TestTrianglesBudgetInCountPhase(t *testing.T) {
	g := randomGraph(t, 57, 3000, 12000)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	selfLoops := 0
	for v := 0; v < cs.NumVertices(); v++ {
		for _, u := range cs.Neighbors(uint32(v)) {
			if u == uint32(v) {
				selfLoops++
			}
		}
	}
	if selfLoops == 0 {
		t.Fatal("test graph has no self-loop; its charges would not pin the self-loop exclusion")
	}
	orient, count := triangleCharges(cs)
	for _, par := range []int{1, 4} {
		run := func(maxWork int64) error {
			_, err := Runner{Parallelism: par, Budget: Budget{MaxWork: maxWork}}.Triangles(context.Background(), cs)
			return err
		}
		if err := run(orient + count); err != nil {
			t.Fatalf("par %d: MaxWork = the full charge %d: %v", par, orient+count, err)
		}
		for _, mw := range []int64{orient + count - 1, orient + count/2, orient} {
			if err := run(mw); !errors.Is(err, guard.ErrBudgetExceeded) {
				t.Fatalf("par %d: MaxWork %d (orientation %d, count %d): err = %v, want guard.ErrBudgetExceeded",
					par, mw, orient, count, err)
			}
		}
	}
}

// TestTrianglesCancellationMidCount cancels a run at the first poll
// after the orientation. A run whose budget is exactly the orientation's
// charge stops at the count phase's first tick, which polls nothing, so
// its Done calls are the orientation's; one call later the context is
// canceled. At one worker that call is inside the count phase by
// construction; at four the same limit is used. Either way the run
// reports guard.ErrCanceled and leaves no worker goroutine behind.
func TestTrianglesCancellationMidCount(t *testing.T) {
	g := randomGraph(t, 58, 3000, 12000)
	st, names := loadScheme(t, g, pgrdf.NG)
	cs := mustProject(t, st, ProjectOptions{Model: names.All, Scheme: pgrdf.NG, Reverse: true})
	orient, _ := triangleCharges(cs)
	before := runtime.NumGoroutine()
	for _, par := range []int{1, 4} {
		probe := guardtest.NewDoneAfter(context.Background(), 0)
		_, err := Runner{Parallelism: par, Budget: Budget{MaxWork: orient}}.Triangles(probe, cs)
		if !errors.Is(err, guard.ErrBudgetExceeded) {
			t.Fatalf("par %d: orientation-only budget: err = %v", par, err)
		}
		ctx := guardtest.NewDoneAfter(context.Background(), probe.Calls()+1)
		if _, err := (Runner{Parallelism: par}).Triangles(ctx, cs); !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("par %d: err = %v, want guard.ErrCanceled", par, err)
		}
		if after := guardtest.Goroutines(before); after > before {
			t.Fatalf("par %d: %d goroutines before the runs, %d after", par, before, after)
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
