package wal

import (
	"errors"
	"sync/atomic"
)

// ErrInjectedCrash is returned by Log.Commit when the installed
// FaultInjector cuts a write short — the in-process stand-in for a
// kill -9 mid-write. The write that failed may have landed partially
// (a torn record); recovery must drop it.
var ErrInjectedCrash = errors.New("wal: injected crash")

// FaultInjector deterministically truncates log writes so crash
// recovery is testable at every byte boundary without real crashes.
// Mirrors the store.FaultInjector pattern: all configuration is atomic
// and a log without an injector pays one atomic pointer load per
// append.
type FaultInjector struct {
	written   atomic.Int64 // bytes the injector has let through
	failAfter atomic.Int64 // cut writes once written exceeds this; <0 = off
}

// NewFaultInjector returns an injector with faults disabled.
func NewFaultInjector() *FaultInjector {
	f := &FaultInjector{}
	f.failAfter.Store(-1)
	return f
}

// FailAfterBytes makes the injector cut the write that would carry the
// cumulative written-byte count past n more bytes (n < 0 disables).
// The failing write lands partially — exactly the torn-record shape a
// power cut produces.
func (f *FaultInjector) FailAfterBytes(n int64) {
	if n >= 0 {
		n += f.written.Load()
	}
	f.failAfter.Store(n)
}

// cut returns how many of the next len(p) bytes may be written, and
// whether the write must fail after them.
func (f *FaultInjector) cut(n int) (allowed int, crash bool) {
	fa := f.failAfter.Load()
	if fa < 0 {
		f.written.Add(int64(n))
		return n, false
	}
	remain := fa - f.written.Load()
	if remain >= int64(n) {
		f.written.Add(int64(n))
		return n, false
	}
	if remain < 0 {
		remain = 0
	}
	f.written.Add(remain)
	return int(remain), true
}
