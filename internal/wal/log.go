package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

const (
	checkpointBinFile = "checkpoint.bin"
	checkpointTmp     = "checkpoint.tmp"
	logFile           = "wal.log"

	// legacyTextCheckpoint is where releases before the binary codec
	// became the only snapshot format kept the checkpoint. Open refuses
	// a directory that has it and no checkpoint.bin (ErrLegacyCheckpoint).
	legacyTextCheckpoint = "checkpoint.nq"
	// deltaPrefix names the incremental delta files older releases
	// chained onto checkpoint.bin. Open refuses a directory holding one
	// (ErrDeltaCheckpoint).
	deltaPrefix = "checkpoint.delta."

	// dueLogBytes keeps a log under this size from being due for a
	// checkpoint even when it exceeds half the full checkpoint: against
	// a small checkpoint the ratio trips at once, yet replaying a
	// sub-megabyte log costs nothing at recovery.
	dueLogBytes = 1 << 20
)

// Log is the durability unit for one data directory: a checkpoint
// snapshot plus the write-ahead log of commits since it. One Log owns
// its directory for the lifetime of the process.
type Log struct {
	dir  string
	opts Options

	// mu is the log's one lock. It serializes commits against
	// checkpoints: while a checkpoint holds it, no record can land
	// between the snapshot read and the log truncation, and every
	// logged record is applied to the store before the snapshot reads
	// it. Replication readers (ReadLogAt, BeginSnapshot) take it too, so
	// a tail read never races an append or a truncation. It also guards
	// the log file and its write state below.
	mu sync.Mutex

	// The log file, positioned at its end. Each record is framed
	// (length prefix + CRC32) and written with one unbuffered write.

	//pgrdf:guardedby mu
	f *os.File
	// dirty reports bytes written since the last fsync.
	//pgrdf:guardedby mu
	dirty bool
	// broken is the sticky write or fsync failure: the file may hold a
	// torn record, so appending more would bury corruption mid-log
	// where recovery treats it as the end.
	//pgrdf:guardedby mu
	broken error
	fault  atomic.Pointer[FaultInjector]

	// off is the end offset of the last fully framed record, records
	// the number of records in the live log and seq the sequence number
	// the next append uses. They are written under mu; Stats reads them
	// without it.
	off     atomic.Int64
	records atomic.Int64
	seq     atomic.Uint64

	// Replication identity (DESIGN.md §13), guarded by mu. replID is
	// fixed for the directory's lifetime; epoch increments on every
	// log truncation; epochStartSeq is the sequence number of the
	// first record of the current epoch; wake is closed (and replaced
	// lazily) whenever the log grows or truncates.

	//pgrdf:guardedby mu
	replID string
	//pgrdf:guardedby mu
	epoch uint64
	//pgrdf:guardedby mu
	epochStartSeq uint64
	//pgrdf:guardedby mu
	wake chan struct{}

	// fullBytes is the size of checkpoint.bin, 0 while the directory
	// has none: what CheckpointIncremental weighs the log against.

	//pgrdf:guardedby mu
	fullBytes int64

	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	lastCkptBytes    atomic.Int64
	lastCkptNanos    atomic.Int64
	replayed         int64 // fixed at Open
	tornDropped      int64 // fixed at Open

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open recovers the store persisted in dir and returns it with a Log
// ready to journal further commits. An empty or missing directory
// yields a fresh store (indexes per opts.Indexes). Recovery restores
// the checkpoint snapshot if present, replays every complete log
// record after it, and truncates a torn or corrupt tail — the on-disk
// shape a crash at any byte boundary leaves behind.
func Open(dir string, opts Options) (*store.Store, *Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	if err := refuseDeltas(dir); err != nil {
		return nil, nil, err
	}
	// A stale tmp file is a checkpoint that crashed before its rename;
	// the previous checkpoint (if any) is still the authoritative one.
	if err := os.Remove(filepath.Join(dir, checkpointTmp)); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: remove stale checkpoint tmp: %w", err)
	}

	st, fullBytes, err := openCheckpoint(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	meta, err := loadOrCreateReplMeta(dir)
	if err != nil {
		return nil, nil, err
	}

	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	rp := replayer{st: st}
	records := int64(0)
	firstSeq := uint64(0)
	good, lastSeq, err := readRecords(bufio.NewReaderSize(f, 1<<20), func(seq uint64, b Batch) error {
		if records == 0 {
			firstSeq = seq
		}
		records++
		return rp.add(b)
	})
	if err == nil {
		err = rp.flush()
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: replay record %d: %w", records, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek log: %w", err)
	}
	if size > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: drop torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync truncated log: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek log end: %w", err)
	}
	// Sequence numbers must stay monotonic across restarts even when a
	// checkpoint left the log empty: repl.meta carries the next
	// sequence as of the last truncation, and the log tail (appended
	// after that) can only raise it.
	seq := lastSeq + 1
	if meta.NextSeq > seq {
		seq = meta.NextSeq
	}
	epochStartSeq := seq
	if records > 0 {
		epochStartSeq = firstSeq
	}
	l := &Log{dir: dir, opts: opts, f: f, done: make(chan struct{}),
		replID: meta.ID, epoch: meta.Epoch, epochStartSeq: epochStartSeq, fullBytes: fullBytes,
		replayed: records, tornDropped: size - good}
	l.off.Store(good)
	l.records.Store(records)
	l.seq.Store(seq)
	return st, l, nil
}

// refuseDeltas fails with ErrDeltaCheckpoint naming the first
// checkpoint.delta.* file in dir. Such a file holds commits an older
// release folded out of wal.log; recovering without it would silently
// lose them.
func refuseDeltas(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: list data dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), deltaPrefix) {
			return fmt.Errorf("%w: %s", ErrDeltaCheckpoint, filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// openCheckpoint restores the checkpoint, or builds a fresh store when
// none exists yet. It also reports the checkpoint's size, 0 without one
// (CheckpointIncremental's due rule).
func openCheckpoint(dir string, opts Options) (st *store.Store, fullBytes int64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointBinFile))
	if err == nil {
		st, rerr := store.RestoreBinary(data)
		if rerr != nil {
			// The checkpoint exists but cannot be decoded. Failing loudly
			// is the only safe answer: opening a fresh store here would
			// serve (and eventually re-checkpoint) an empty dataset over
			// data the operator believes is durable.
			return nil, 0, fmt.Errorf("%w: restore %s: %v", ErrCheckpointCorrupt, checkpointBinFile, rerr)
		}
		return st, int64(len(data)), nil
	}
	if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	// The same reasoning holds for a checkpoint in the retired text
	// format: this build cannot read it, so it must not start empty.
	legacy := filepath.Join(dir, legacyTextCheckpoint)
	if _, err := os.Stat(legacy); err == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrLegacyCheckpoint, legacy)
	}
	if len(opts.Indexes) == 0 {
		return store.New(), 0, nil
	}
	st, err = store.NewWithIndexes(opts.Indexes)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: index config: %w", err)
	}
	return st, 0, nil
}

// replayGroupOps is how many journaled operations recovery hands the
// store at a time.
const replayGroupOps = 4096

// replayer applies journaled batches during recovery, many to one
// store.Apply: nobody reads the store yet, so there is no intermediate
// state to publish, and a group pays the copy-on-write of the store's
// delta once instead of once per record. Apply works through its ops in
// order, so the result is what ApplyBatch per record would build.
type replayer struct {
	st  *store.Store
	ops []store.Op
}

func (r *replayer) add(b Batch) error {
	r.ops = appendOps(r.ops, b)
	if len(r.ops) < replayGroupOps {
		return nil
	}
	return r.flush()
}

func (r *replayer) flush() error {
	_, _, err := r.st.Apply(r.ops)
	r.ops = r.ops[:0]
	return err
}

// Commit journals the batch and, once it is durably framed, runs apply
// (the store mutation) under the same critical section — so a
// checkpoint can never observe a store missing commits it is about to
// truncate out of the log. An append failure aborts the commit: apply
// does not run, and the caller reports the update failed. apply must not
// call back into the Log.
func (l *Log) Commit(b Batch, apply func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(b.Ops) > 0 {
		if err := l.appendLocked(b); err != nil {
			return err
		}
		// The record is durably framed; wake long-poll tailers. Waking
		// before apply is fine — readers of the log see the record
		// bytes, and followers apply them to their own stores.
		l.wakeLocked()
	}
	if apply == nil {
		return nil
	}
	return apply()
}

// appendLocked frames the batch as one record and writes it, fsyncing
// under SyncAlways. The record is either fully framed on disk (and
// will replay) or torn (and will be dropped by recovery); the error
// says which. A failed write breaks the log.
//
//pgrdf:locks mu
func (l *Log) appendLocked(b Batch) error {
	if l.broken != nil {
		return l.broken
	}
	frame, err := encodeBatch(l.seq.Load(), b)
	if err != nil {
		return err // nothing written; the log stays healthy
	}
	if err := l.writeLocked(frame); err != nil {
		l.broken = err
		return err
	}
	l.off.Add(int64(len(frame)))
	l.records.Add(1)
	l.seq.Add(1)
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// writeLocked sends p through the fault injector (when installed) to
// the file.
//
//pgrdf:locks mu
func (l *Log) writeLocked(p []byte) error {
	if fi := l.fault.Load(); fi != nil {
		allowed, crash := fi.cut(len(p))
		if crash {
			if allowed > 0 {
				l.f.Write(p[:allowed]) //nolint — the crash error supersedes
			}
			return fmt.Errorf("%w after %d of %d bytes", ErrInjectedCrash, allowed, len(p))
		}
	}
	_, err := l.f.Write(p)
	return err
}

// syncLocked fsyncs unsynced records, or returns the sticky failure of
// a broken log.
//
//pgrdf:locks mu
func (l *Log) syncLocked() error {
	if l.broken != nil {
		return l.broken
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages, so retrying cannot make the data durable; breaking the
		// log is the only safe answer.
		l.broken = err
		return err
	}
	l.dirty = false
	return nil
}

// Sync flushes the log to stable storage regardless of policy. It waits
// for a running checkpoint, which leaves the log durable anyway.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// SetFaultInjector installs (or, with nil, removes) the log's fault
// injector. Safe to call concurrently with commits.
func (l *Log) SetFaultInjector(fi *FaultInjector) { l.fault.Store(fi) }

// Checkpoint atomically snapshots st into the binary checkpoint file
// and truncates the log. Commits block for the duration; the background
// checkpointer trades that pause for bounded recovery time. On any
// failure the previous checkpoint and the full log remain
// authoritative.
func (l *Log) Checkpoint(st *store.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runCheckpointLocked(st)
}

// CheckpointIncremental checkpoints only when the log is due — the
// background checkpointer's tick. The log is due when the directory has
// no checkpoint.bin yet, or when it is at least dueLogBytes and larger
// than half the last checkpoint (replaying it then costs about what
// restoring a rewrite saves). A log that is not due is fsynced and left
// whole: every commit before the call is durable under any sync policy,
// and recovery replays it over the existing checkpoint. No checkpoint is
// counted then, and the replication epoch stays.
func (l *Log) CheckpointIncremental(st *store.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.off.Load(); l.fullBytes == 0 || (n >= dueLogBytes && 2*n > l.fullBytes) {
		return l.runCheckpointLocked(st)
	}
	if err := l.syncLocked(); err != nil {
		l.checkpointErrors.Add(1)
		return err
	}
	return nil
}

// runCheckpointLocked writes the checkpoint and keeps the counters: a
// success or an error, the size and the wall time.
//
//pgrdf:locks mu
func (l *Log) runCheckpointLocked(st *store.Store) error {
	start := time.Now()
	size, err := l.checkpointLocked(st)
	if err != nil {
		l.checkpointErrors.Add(1)
		return err
	}
	l.fullBytes = size
	l.checkpoints.Add(1)
	l.lastCkptBytes.Store(size)
	l.lastCkptNanos.Store(time.Since(start).Nanoseconds())
	return nil
}

// checkpointLocked publishes the snapshot by tmp+fsync+rename, then
// persists the epoch bump and truncates the log.
//
//pgrdf:locks mu
func (l *Log) checkpointLocked(st *store.Store) (int64, error) {
	tmpPath := filepath.Join(l.dir, checkpointTmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: create checkpoint tmp: %w", err)
	}
	if err := st.View().SnapshotBinary(f); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		size = 0
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: close checkpoint tmp: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, checkpointBinFile)); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	syncDir(l.dir) // make the rename itself durable (best effort)

	// Advance the replication epoch before truncating: a follower must
	// never read post-truncation bytes under a pre-truncation epoch.
	// If the meta write fails the checkpoint is still valid (replaying
	// the untruncated log over it is idempotent), so the error only
	// aborts the truncation. A broken log cannot truncate, so it aborts
	// before the epoch moves.
	if l.broken != nil {
		return 0, fmt.Errorf("wal: truncate log after checkpoint: %w", l.broken)
	}
	nextSeq := l.seq.Load()
	if err := writeReplMeta(l.dir, replMeta{ID: l.replID, Epoch: l.epoch + 1, NextSeq: nextSeq}); err != nil {
		return 0, err
	}
	l.epoch++
	l.epochStartSeq = nextSeq
	// The checkpoint now covers every logged commit; drop the log. The
	// sequence number keeps counting: record seqs stay monotonic across
	// truncations.
	if err := l.truncateLocked(); err != nil {
		return 0, fmt.Errorf("wal: truncate log after checkpoint: %w", err)
	}
	// Wake tailers so they observe the epoch change promptly instead of
	// at their next poll timeout.
	l.wakeLocked()
	return size, nil
}

// truncateLocked empties the log file and fsyncs the truncation.
//
//pgrdf:locks mu
func (l *Log) truncateLocked() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.off.Store(0)
	l.records.Store(0)
	l.dirty = false
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Some filesystems reject directory fsync; that only widens the crash
// window, so the error is ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint — best effort by design
	d.Close()
}

// StartCheckpointer runs CheckpointIncremental every interval until
// Close: a tick rewrites checkpoint.bin only when the log is due, so a
// mostly idle store pays an fsync per cycle instead of a full rewrite.
func (l *Log) StartCheckpointer(st *store.Store, every time.Duration) {
	if every <= 0 {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-l.done:
				return
			case <-t.C:
				//pgrdfvet:ignore walerr -- failure is counted in Stats.CheckpointErrors and the next tick retries
				l.CheckpointIncremental(st)
			}
		}
	}()
}

// Stats returns a point-in-time view of the log.
func (l *Log) Stats() Stats {
	return Stats{
		WalBytes:               l.off.Load(),
		WalRecords:             l.records.Load(),
		Seq:                    l.seq.Load(),
		Checkpoints:            l.checkpoints.Load(),
		CheckpointErrors:       l.checkpointErrors.Load(),
		LastCheckpointBytes:    l.lastCkptBytes.Load(),
		LastCheckpointDuration: time.Duration(l.lastCkptNanos.Load()),
		ReplayedRecords:        l.replayed,
		TornBytesDropped:       l.tornDropped,
	}
}

// Close stops the background checkpointer and closes the file. It
// waits for a running commit or checkpoint; under SyncAlways every
// acknowledged commit is already fsynced, and under SyncOff the OS
// decides. Safe to call more than once.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.wg.Wait()
		l.mu.Lock()
		defer l.mu.Unlock()
		l.closeErr = l.f.Close()
	})
	return l.closeErr
}
