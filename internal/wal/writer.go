package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// ErrInjectedCrash is returned by Writer.Append when the installed
// FaultInjector cuts a write short — the in-process stand-in for a
// kill -9 mid-write. The write that failed may have landed partially
// (a torn record); recovery must drop it.
var ErrInjectedCrash = errors.New("wal: injected crash")

// FaultInjector deterministically truncates log writes so crash
// recovery is testable at every byte boundary without real crashes.
// Mirrors the store.FaultInjector pattern: all configuration is atomic
// and a writer without an injector pays one atomic pointer load per
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

// Written reports how many bytes the injector has observed.
func (f *FaultInjector) Written() int64 { return f.written.Load() }

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

// Writer is the low-level append-only record writer: it frames batches
// (length prefix + CRC32), writes them with a single unbuffered write,
// and fsyncs per the policy. A write failure — injected or real — is
// sticky: the file may hold a torn record, so continuing to append
// would bury corruption mid-log where recovery treats it as the end.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	policy SyncPolicy
	// end offset of the last fully framed record
	//pgrdf:guardedby mu
	off int64
	//pgrdf:guardedby mu
	records int64
	// next sequence number
	//pgrdf:guardedby mu
	seq uint64
	// bytes written since the last fsync
	//pgrdf:guardedby mu
	dirty bool
	// sticky failure (the fsync-failure latch)
	//pgrdf:guardedby mu
	broken error
	fault  atomic.Pointer[FaultInjector]
}

// newWriter wraps an open log file positioned at off.
func newWriter(f *os.File, off int64, records int64, seq uint64, policy SyncPolicy) *Writer {
	return &Writer{f: f, off: off, records: records, seq: seq, policy: policy}
}

// SetFaultInjector installs (or, with nil, removes) the writer's fault
// injector. Safe to call concurrently with appends.
func (w *Writer) SetFaultInjector(fi *FaultInjector) { w.fault.Store(fi) }

// Append frames the batch as one record and writes it durably per the
// sync policy. The record is either fully framed on disk (and will
// replay) or torn (and will be dropped by recovery); Append reports
// which via its error.
func (w *Writer) Append(b Batch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	frame, err := encodeBatch(w.seq, b)
	if err != nil {
		return err // nothing written; the writer stays healthy
	}
	if err := w.write(frame); err != nil {
		w.broken = err
		return err
	}
	w.off += int64(len(frame))
	w.records++
	w.seq++
	w.dirty = true
	if w.policy == SyncAlways {
		if err := w.syncLocked(); err != nil {
			w.broken = err
			return err
		}
	}
	return nil
}

// write sends p through the fault injector (when installed) to the file.
func (w *Writer) write(p []byte) error {
	if fi := w.fault.Load(); fi != nil {
		allowed, crash := fi.cut(len(p))
		if crash {
			if allowed > 0 {
				w.f.Write(p[:allowed]) //nolint — the crash error supersedes
			}
			return fmt.Errorf("%w after %d of %d bytes", ErrInjectedCrash, allowed, len(p))
		}
	}
	_, err := w.f.Write(p)
	return err
}

// Sync flushes appended records to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	return w.syncLocked()
}

//pgrdf:locks mu
func (w *Writer) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages, so retrying cannot make the data durable; breaking the
		// writer is the only safe answer.
		w.broken = err
		return err
	}
	w.dirty = false
	return nil
}

// reset truncates the log after a successful checkpoint. The sequence
// number keeps counting: record seqs stay monotonic across truncations
// for the lifetime of the writer.
func (w *Writer) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.off, w.records, w.dirty = 0, 0, false
	return nil
}

// readAt reads len(p) bytes of the log file at offset off. Replication
// tail reads go through it: taking w.mu means the read never overlaps
// an in-flight Append or truncation, so the bytes are always whole,
// fully framed records (the caller bounds off+len(p) by Bytes()).
func (w *Writer) readAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.ReadAt(p, off)
}

// err returns the writer's sticky failure, nil while it is healthy.
func (w *Writer) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Bytes returns the log size in fully framed record bytes.
func (w *Writer) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Records returns the number of records in the live log.
func (w *Writer) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Seq returns the sequence number the next Append will use.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

func (w *Writer) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken == nil && w.dirty && w.policy != SyncOff {
		w.f.Sync() //nolint — best-effort flush; Close error follows
	}
	return w.f.Close()
}
