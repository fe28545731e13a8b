// Package goroutinelifetest exercises the goroutinelife analyzer:
// every go statement needs a visible join — WaitGroup counter, context
// cancellation, stop channel, or a channel handshake with the spawner.
package goroutinelifetest

import (
	"context"
	"sync"
)

func work()    {}
func sink(int) {}

// --- failing cases ---------------------------------------------------

func fireAndForget() {
	go work() // want "no visible join mechanism"
}

// droppedHandshake is cmd/pgrdf's serve loop with the send removed:
// the spawner still waits on errc, but the goroutine no longer reports
// to it, so a failed listener is never seen.
func droppedHandshake(ctx context.Context) error {
	errc := make(chan error, 1)
	go func() { doWork() }() // want "no visible join mechanism"
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		return nil
	}
}

func fireAndForgetClosure(items []int) {
	go func() { // want "no visible join mechanism"
		for _, it := range items {
			sink(it)
		}
	}()
}

// --- fixed counterparts ----------------------------------------------

func waitGroupJoin(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

func contextArg(ctx context.Context) {
	// The callee receives the context, so it owns its cancellation.
	go tail(ctx)
}

func tail(ctx context.Context) {
	<-ctx.Done()
}

func contextLoop(ctx context.Context, tick <-chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick:
				work()
			}
		}
	}()
}

type pump struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// stopChannel: the body watches a chan struct{} — the stop-channel /
// semaphore-slot idiom.
func (p *pump) stopChannel() {
	go func() {
		for {
			select {
			case <-p.stop:
				return
			default:
				work()
			}
		}
	}()
}

// methodBody: for `go p.loop()` the analyzer inspects the same-package
// callee's body for join evidence.
func (p *pump) methodBody() {
	p.wg.Add(1)
	go p.loop()
}

func (p *pump) loop() {
	defer p.wg.Done()
	<-p.stop
}

func channelHandshake() error {
	errc := make(chan error, 1)
	go func() {
		errc <- doWork()
	}()
	return <-errc
}

func doWork() error { return nil }

// --- justified suppression -------------------------------------------

func suppressed() {
	//pgrdfvet:ignore goroutinelife -- process-lifetime metrics flusher, exits with the process by design
	go work()
}
