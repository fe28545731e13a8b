package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

const (
	checkpointBinFile = "checkpoint.bin"
	checkpointFile    = "checkpoint.nq"
	checkpointTmp     = "checkpoint.tmp"
	logFile           = "wal.log"
)

// Log is the durability unit for one data directory: a checkpoint
// snapshot plus the write-ahead log of commits since it. One Log owns
// its directory for the lifetime of the process.
type Log struct {
	dir  string
	opts Options
	w    *Writer

	// mu serializes commits against checkpoints: while a checkpoint
	// holds it, no record can land between the snapshot read and the
	// log truncation, and every logged record is applied to the store
	// before the snapshot reads it. Replication readers (ReadLogAt,
	// BeginSnapshot) take it too, so a tail read never races a
	// truncation.
	mu sync.Mutex

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

	// Delta-chain root (DESIGN.md §16): the CRC of the binary full
	// checkpoint new deltas extend. haveBase is false when there is no
	// binary base yet (a fresh directory, or a legacy checkpoint.nq) —
	// incremental requests then promote to a full checkpoint.

	//pgrdf:guardedby mu
	baseCRC uint32
	//pgrdf:guardedby mu
	haveBase bool

	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	fullCkpts        atomic.Int64
	incrCkpts        atomic.Int64
	lastCkptBytes    atomic.Int64
	lastCkptNanos    atomic.Int64
	lastFullBytes    atomic.Int64
	chainLen         atomic.Int64
	chainBytes       atomic.Int64
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
	// A stale tmp file is a checkpoint that crashed before its rename;
	// the previous checkpoint (if any) is still the authoritative one.
	if err := os.Remove(filepath.Join(dir, checkpointTmp)); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: remove stale checkpoint tmp: %w", err)
	}

	st, baseCRC, haveBase, fullBytes, err := openCheckpoint(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	// Replay the incremental delta chain (if any) over the base before
	// the log tail: base → delta 1..N → wal.log is commit order.
	rp := replayer{st: st}
	chainLen, chainBytes, err := loadDeltas(dir, baseCRC, haveBase, rp.add)
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
	l := &Log{dir: dir, opts: opts, done: make(chan struct{}),
		replID: meta.ID, epoch: meta.Epoch, baseCRC: baseCRC, haveBase: haveBase}
	l.lastFullBytes.Store(fullBytes)
	l.chainLen.Store(int64(chainLen))
	l.chainBytes.Store(chainBytes)
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
	l.replayed = records
	l.tornDropped = size - good
	// Sequence numbers must stay monotonic across restarts even when a
	// checkpoint left the log empty: repl.meta carries the next
	// sequence as of the last truncation, and the log tail (appended
	// after that) can only raise it.
	seq := lastSeq + 1
	if meta.NextSeq > seq {
		seq = meta.NextSeq
	}
	if records > 0 {
		l.epochStartSeq = firstSeq
	} else {
		l.epochStartSeq = seq
	}
	l.w = newWriter(f, good, records, seq, opts.Sync)

	if opts.Sync == SyncInterval {
		every := opts.SyncEvery
		if every <= 0 {
			every = 100 * time.Millisecond
		}
		l.wg.Add(1)
		go l.syncLoop(every)
	}
	return st, l, nil
}

// openCheckpoint restores the checkpoint, or builds a fresh store when
// none exists yet. A legacy text checkpoint.nq is restored only when no
// checkpoint.bin exists (the first full checkpoint removes it, so both
// only coexist inside a crash window where the binary one is the
// newer). It also reports the binary file's CRC — the root the delta
// chain is validated against — and its size (the incremental path's
// full-vs-chain cost comparison).
func openCheckpoint(dir string, opts Options) (st *store.Store, baseCRC uint32, haveBase bool, fullBytes int64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointBinFile))
	if err == nil {
		st, rerr := store.RestoreBinary(data)
		if rerr != nil {
			// The checkpoint exists but cannot be decoded. Failing loudly
			// is the only safe answer: opening a fresh store here would
			// serve (and eventually re-checkpoint) an empty dataset over
			// data the operator believes is durable.
			return nil, 0, false, 0, fmt.Errorf("%w: restore %s: %v", ErrCheckpointCorrupt, checkpointBinFile, rerr)
		}
		return st, crc32.ChecksumIEEE(data), true, int64(len(data)), nil
	}
	if !os.IsNotExist(err) {
		return nil, 0, false, 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}

	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		if len(opts.Indexes) == 0 {
			return store.New(), 0, false, 0, nil
		}
		st, err := store.NewWithIndexes(opts.Indexes)
		if err != nil {
			return nil, 0, false, 0, fmt.Errorf("wal: index config: %w", err)
		}
		return st, 0, false, 0, nil
	}
	if err != nil {
		return nil, 0, false, 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	defer f.Close()
	// RestoreAny sniffs the magic, so a binary snapshot parked under the
	// text name (hand-copied backups) still restores; only a named .bin
	// file can root a delta chain, though.
	st, err = store.RestoreAny(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, 0, false, 0, fmt.Errorf("%w: restore %s: %v", ErrCheckpointCorrupt, checkpointFile, err)
	}
	return st, 0, false, 0, nil
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
//
//pgrdf:callback-under mu
func (l *Log) Commit(b Batch, apply func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(b.Ops) > 0 {
		if err := l.w.Append(b); err != nil {
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

// Sync flushes the log to stable storage regardless of policy.
func (l *Log) Sync() error { return l.w.Sync() }

// SetFaultInjector installs a fault injector on the underlying writer.
func (l *Log) SetFaultInjector(fi *FaultInjector) { l.w.SetFaultInjector(fi) }

// Checkpoint atomically snapshots st into the binary checkpoint file
// and truncates the log. Commits block for the duration; the background
// checkpointer trades that pause for bounded recovery time. On any
// failure the previous checkpoint chain and the full log remain
// authoritative.
func (l *Log) Checkpoint(st *store.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runCheckpointLocked(st, false)
}

// CheckpointIncremental folds the live log into one delta file of the
// current checkpoint chain instead of rewriting the full store, and
// truncates the log — the background checkpointer's default. It
// promotes itself to a full Checkpoint when a delta cannot extend the
// chain (no binary base yet, chain at its length cap, or chain bytes
// past half the base — recovery replay cost has caught up with a
// rewrite). An empty log is a no-op: the chain already covers every
// commit.
func (l *Log) CheckpointIncremental(st *store.Store) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w.Records() == 0 {
		return nil
	}
	chainOK := l.chainBytes.Load()*2 <= l.lastFullBytes.Load() ||
		l.chainBytes.Load() < minDeltaChainBytes
	incremental := l.haveBase && l.chainLen.Load() < maxDeltaChain && chainOK
	return l.runCheckpointLocked(st, incremental)
}

//pgrdf:locks mu
func (l *Log) runCheckpointLocked(st *store.Store, incremental bool) error {
	start := time.Now()
	var bytes int64
	var err error
	if incremental {
		bytes, err = l.deltaCheckpointLocked()
	} else {
		bytes, err = l.checkpointLocked(st)
	}
	if err != nil {
		l.checkpointErrors.Add(1)
		return err
	}
	l.checkpoints.Add(1)
	if incremental {
		l.incrCkpts.Add(1)
	} else {
		l.fullCkpts.Add(1)
	}
	l.lastCkptBytes.Store(bytes)
	l.lastCkptNanos.Store(time.Since(start).Nanoseconds())
	return nil
}

//pgrdf:locks mu
func (l *Log) checkpointLocked(st *store.Store) (int64, error) {
	tmpPath := filepath.Join(l.dir, checkpointTmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: create checkpoint tmp: %w", err)
	}
	tee := &crcTee{w: f}
	if err := st.View().SnapshotBinary(tee); err != nil {
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
	// The full file supersedes a legacy text checkpoint and every delta.
	// This must precede the truncation: if a removal fails, aborting here
	// leaves the untruncated log, and recovery over the new full file
	// plus the whole log is idempotent (stale deltas are detected by
	// their base CRC and removed on open).
	if err := removeSuperseded(l.dir); err != nil {
		return 0, err
	}
	if err := l.advanceEpochAndTruncateLocked(); err != nil {
		return 0, err
	}
	l.haveBase = true
	l.baseCRC = tee.crc
	l.lastFullBytes.Store(size)
	l.chainLen.Store(0)
	l.chainBytes.Store(0)
	return size, nil
}

// deltaCheckpointLocked folds the live log into the next delta file of
// the current chain and truncates the log.
//
//pgrdf:locks mu
func (l *Log) deltaCheckpointLocked() (int64, error) {
	raw, err := l.w.readAll()
	if err != nil {
		return 0, fmt.Errorf("wal: read log for fold: %w", err)
	}
	var batches []Batch
	firstSeq := uint64(0)
	good, _, err := readRecords(bytes.NewReader(raw), func(seq uint64, b Batch) error {
		if len(batches) == 0 {
			firstSeq = seq
		}
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if good != int64(len(raw)) {
		// The live log only ever holds fully framed records (torn tails
		// exist only after a crash, and Open truncated those).
		return 0, fmt.Errorf("wal: log tail undecodable at offset %d during fold", good)
	}
	index := uint32(l.chainLen.Load()) + 1
	data, err := encodeDelta(l.baseCRC, index, foldOps(batches), firstSeq)
	if err != nil {
		return 0, err
	}
	tmpPath := filepath.Join(l.dir, checkpointTmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: create delta tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: write delta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: sync delta: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: close delta tmp: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, deltaName(index))); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("wal: publish delta: %w", err)
	}
	syncDir(l.dir)
	// Crash window: the delta is published but the log not yet
	// truncated. Recovery then replays both — idempotent, because the
	// fold is last-op-wins per (model, quad) and re-applying the same
	// tail converges to the same state.
	if err := l.advanceEpochAndTruncateLocked(); err != nil {
		return 0, err
	}
	l.chainLen.Add(1)
	l.chainBytes.Add(int64(len(data)))
	return int64(len(data)), nil
}

// advanceEpochAndTruncateLocked is the shared tail of every checkpoint
// flavor: persist the epoch bump, then drop the log.
//
//pgrdf:locks mu
func (l *Log) advanceEpochAndTruncateLocked() error {
	// Advance the replication epoch before truncating: a follower must
	// never read post-truncation bytes under a pre-truncation epoch.
	// If the meta write fails the checkpoint is still valid (replaying
	// the untruncated log over it is idempotent), so the error only
	// aborts the truncation.
	nextSeq := l.w.Seq()
	if err := writeReplMeta(l.dir, replMeta{ID: l.replID, Epoch: l.epoch + 1, NextSeq: nextSeq}); err != nil {
		return err
	}
	l.epoch++
	l.epochStartSeq = nextSeq
	// The checkpoint chain now covers every logged commit; drop the log.
	if err := l.w.reset(); err != nil {
		return fmt.Errorf("wal: truncate log after checkpoint: %w", err)
	}
	// Wake tailers so they observe the epoch change promptly instead of
	// at their next poll timeout.
	l.wakeLocked()
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

// StartCheckpointer checkpoints st every interval until Close. Ticks
// take the incremental path, so a mostly-idle store pays a few
// kilobytes of delta per cycle instead of a full rewrite; the chain
// caps promote a tick to a full checkpoint when it grows too long.
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

func (l *Log) syncLoop(every time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			//pgrdfvet:ignore walerr -- a failed fsync breaks the writer, so the next Commit surfaces it
			l.w.Sync()
		}
	}
}

// Stats returns a point-in-time view of the log.
func (l *Log) Stats() Stats {
	return Stats{
		WalBytes:               l.w.Bytes(),
		WalRecords:             l.w.Records(),
		Seq:                    l.w.Seq(),
		Checkpoints:            l.checkpoints.Load(),
		CheckpointErrors:       l.checkpointErrors.Load(),
		LastCheckpointBytes:    l.lastCkptBytes.Load(),
		LastCheckpointDuration: time.Duration(l.lastCkptNanos.Load()),
		ReplayedRecords:        l.replayed,
		TornBytesDropped:       l.tornDropped,
		FullCheckpoints:        l.fullCkpts.Load(),
		IncrementalCheckpoints: l.incrCkpts.Load(),
		DeltaChainLen:          l.chainLen.Load(),
		DeltaChainBytes:        l.chainBytes.Load(),
	}
}

// Close stops the background goroutines, flushes the log (unless the
// policy is SyncOff) and closes the file. Safe to call more than once.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.wg.Wait()
		l.closeErr = l.w.close()
	})
	return l.closeErr
}
