// Package ctxflowtest exercises the ctxflow analyzer. It is analyzed
// under the import path repro/internal/ctxflowtest, i.e. as library
// code, where the rule applies.
package ctxflowtest

import (
	"context"
	"sync"

	"repro/internal/sparql"
)

const q = "SELECT * WHERE { ?s ?p ?o }"

func badMintedContext(e *sparql.Engine) {
	ctx := context.Background() // want "must accept a context from its caller, not mint context.Background"
	_, _ = e.QueryContext(ctx, "m", q)
	_, _ = e.ExecContext(context.TODO(), "m", "ASK {}") // want "must accept a context from its caller, not mint context.TODO"
}

func good(ctx context.Context, e *sparql.Engine) error {
	if _, err := e.QueryContext(ctx, "m", q); err != nil {
		return err
	}
	if _, err := e.UpdateContext(ctx, "m", "CLEAR ALL"); err != nil {
		return err
	}
	// Explain runs nothing, so it takes no context.
	_, err := e.Explain("m", q)
	return err
}

// goodWorkerPool is the intra-query parallelism shape: worker
// goroutines share the caller's context (captured by the closure or
// derived via WithCancel), which is threading, not minting — the
// analyzer must not flag it.
func goodWorkerPool(ctx context.Context, e *sparql.Engine, queries []string) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, q := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, err := e.QueryContext(wctx, "m", q); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}(q)
	}
	wg.Wait()
	return firstErr
}

// badWorkerMintsContext detaches a worker from the caller's
// cancellation by minting a fresh root context inside the goroutine.
func badWorkerMintsContext(e *sparql.Engine) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background() // want "must accept a context from its caller, not mint context.Background"
		_, _ = e.QueryContext(ctx, "m", q)
	}()
	wg.Wait()
}

func suppressed(e *sparql.Engine) {
	//pgrdfvet:ignore ctxflow -- warm-up helper is deliberately uncancellable
	_, _ = e.QueryContext(context.Background(), "m", q)
}
