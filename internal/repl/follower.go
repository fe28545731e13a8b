package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

// errResync marks conditions under which the follower's copy can no
// longer be trusted to extend the leader's history: identity or epoch
// mismatch, a sequence regression, a partially applied batch, or
// bytes that persistently fail to frame. The only safe response is a
// re-bootstrap; the error never escapes Run.
var errResync = errors.New("repl: follower diverged from leader history")

// zeroProgressLimit is how many consecutive non-empty tail reads may
// fail to decode a single frame before the follower declares the
// stream diverged. Transient wire truncation recovers in one retry;
// a leader whose log was rewritten under the same offset never does.
const zeroProgressLimit = 5

// Options configures a Follower. Only Leader is required.
type Options struct {
	// Leader is the base URL of the leader's HTTP endpoint, e.g.
	// "http://leader:3030".
	Leader string
	// Client is the HTTP client used for every leader interaction.
	// Nil means a default client; per-request timeouts are applied via
	// request contexts either way.
	Client *http.Client
	// RequestTimeout bounds one tail request beyond the long-poll wait
	// (and the snapshot response headers). 0 means 10s.
	RequestTimeout time.Duration
	// SnapshotTimeout bounds a whole bootstrap transfer. 0 means 5m.
	SnapshotTimeout time.Duration
	// PollWait is the long-poll hold the follower asks the leader for
	// when it is caught up. 0 means 5s.
	PollWait time.Duration
	// ChunkBytes caps the record bytes requested per tail read.
	// 0 means 4 MiB.
	ChunkBytes int
	// BackoffBase and BackoffMax bound the jittered exponential
	// backoff between failed leader interactions. 0 means 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DegradedAfter is the age of the last successful leader contact
	// at which Status reports StateDegraded. 0 means 15s.
	DegradedAfter time.Duration
	// MaxStaleness, when positive, is the last-contact age past which
	// Stale() reports true and the HTTP layer fails reads with 503 +
	// Retry-After. 0 serves stale reads forever (the default).
	MaxStaleness time.Duration
	// Logf, when set, receives progress lines (bootstraps, divergence,
	// leader loss). Nil disables logging.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.SnapshotTimeout <= 0 {
		o.SnapshotTimeout = 5 * time.Minute
	}
	if o.PollWait <= 0 {
		o.PollWait = 5 * time.Second
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 4 << 20
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.DegradedAfter <= 0 {
		o.DegradedAfter = 15 * time.Second
	}
	o.Leader = strings.TrimRight(o.Leader, "/")
	return o
}

// followPos is the follower's cursor into the leader's history.
type followPos struct {
	id      string
	epoch   uint64
	offset  int64
	nextSeq uint64
}

// Follower replicates a leader's store. Create with New, then run the
// replication loop with Run (usually in its own goroutine); WaitReady
// blocks until the first bootstrap has produced a queryable store.
type Follower struct {
	opts   Options
	client *http.Client

	// OnStore, when set, is called with the fresh store after every
	// successful (re)bootstrap — the HTTP layer swaps its engine here.
	// Set it before calling Run.
	OnStore func(*store.Store)

	st atomic.Pointer[store.Store]

	// running admits one Run at a time. The three fields after it are
	// Run's own (and New's, before Run starts); Run publishes pos to
	// other goroutines only through applied, one immutable copy at a
	// time, so Status never sees an epoch without its offset.
	running       atomic.Bool
	pos           followPos
	needBootstrap bool
	zeroProgress  int
	applied       atomic.Pointer[followPos]

	ready     chan struct{}
	readyOnce sync.Once

	// observability
	state            atomic.Int32 // State
	lastContactNanos atomic.Int64 // wall-clock unix nanos; 0 = never
	appliedRecords   atomic.Int64
	leaderOffset     atomic.Int64
	leaderNextSeq    atomic.Uint64
	bootstraps       atomic.Int64
	divergences      atomic.Int64
	epochAdoptions   atomic.Int64
	retryErrors      atomic.Int64
	staleRejected    atomic.Int64
}

// New builds a follower for the given leader. Run starts replication.
func New(opts Options) *Follower {
	opts = opts.withDefaults()
	cl := opts.Client
	if cl == nil {
		cl = &http.Client{}
	}
	f := &Follower{opts: opts, client: cl, ready: make(chan struct{}), needBootstrap: true}
	f.state.Store(int32(StateBootstrapping))
	f.applied.Store(&followPos{})
	return f
}

// Store returns the follower's current store (nil before the first
// bootstrap completes). The store is swapped wholesale on
// re-bootstrap; callers serving queries should use OnStore to follow
// the swaps.
func (f *Follower) Store() *store.Store { return f.st.Load() }

// WaitReady blocks until the first bootstrap has completed (returning
// the store) or ctx fires.
func (f *Follower) WaitReady(ctx context.Context) (*store.Store, error) {
	select {
	case <-f.ready:
		return f.st.Load(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Run drives the replication loop — bootstrap, tail, retry with
// backoff, re-bootstrap on divergence — until ctx is canceled. It
// returns ctx's error; every other failure is retried forever (the
// follower keeps serving stale reads while the leader is away). A Run
// started while another is running returns an error at once.
func (f *Follower) Run(ctx context.Context) error {
	if !f.running.CompareAndSwap(false, true) {
		return errors.New("repl: the follower is already running")
	}
	defer f.running.Store(false)
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if f.needBootstrap || f.st.Load() == nil {
			f.state.Store(int32(StateBootstrapping))
			if err := f.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				f.retryErrors.Add(1)
				f.logf("bootstrap from %s failed: %v", f.opts.Leader, err)
				f.sleep(ctx, f.backoff(&attempt))
				continue
			}
			attempt = 0
		}
		f.state.Store(int32(StateTailing))
		err := f.tailOnce(ctx)
		switch {
		case err == nil:
			attempt = 0
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, errResync):
			f.divergences.Add(1)
			f.needBootstrap = true
			f.logf("divergence detected (%v); re-bootstrapping from %s", err, f.opts.Leader)
			f.sleep(ctx, f.backoff(&attempt))
		default:
			f.retryErrors.Add(1)
			f.sleep(ctx, f.backoff(&attempt))
		}
	}
}

// bootstrap fetches the leader's consistent snapshot, restores it into
// a fresh store, and adopts the position the snapshot corresponds to.
func (f *Follower) bootstrap(ctx context.Context) error {
	rctx, cancel := context.WithTimeout(ctx, f.opts.SnapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		f.opts.Leader+"/export?format=snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: snapshot request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drain(resp.Body)
		return fmt.Errorf("repl: leader snapshot returned %s", resp.Status)
	}
	pos, err := positionFromHeaders(resp.Header)
	if err != nil {
		return fmt.Errorf("repl: leader %s is not serving a replication snapshot (start it with -data-dir): %w",
			f.opts.Leader, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: read snapshot: %w", err)
	}
	// The codec's trailer seals the section count and a whole-file CRC,
	// so a body cut anywhere — even one the wire delivered as complete —
	// fails here rather than restoring a prefix of the leader's store.
	st, err := store.RestoreBinary(body)
	if err != nil {
		return fmt.Errorf("repl: restore snapshot: %w", err)
	}
	quads := st.View().Len()

	f.pos = followPos{id: pos.ID, epoch: pos.Epoch, offset: pos.Offset, nextSeq: pos.NextSeq}
	f.needBootstrap = false
	f.zeroProgress = 0
	f.publish()
	f.st.Store(st)
	f.bootstraps.Add(1)
	f.noteContact(pos)
	if f.OnStore != nil {
		f.OnStore(st)
	}
	f.readyOnce.Do(func() { close(f.ready) })
	f.logf("bootstrapped %d quads from %s at epoch %d offset %d (next seq %d)",
		quads, f.opts.Leader, pos.Epoch, pos.Offset, pos.NextSeq)
	return nil
}

// tailOnce performs one long-poll tail request and applies whatever
// complete frames arrive. A nil return means contact succeeded (even
// if no new records were available).
func (f *Follower) tailOnce(ctx context.Context) error {
	pos := f.pos

	q := url.Values{}
	q.Set("from", strconv.FormatInt(pos.offset, 10))
	q.Set("epoch", strconv.FormatUint(pos.epoch, 10))
	q.Set("id", pos.id)
	q.Set("wait", f.opts.PollWait.String())
	q.Set("max", strconv.Itoa(f.opts.ChunkBytes))
	rctx, cancel := context.WithTimeout(ctx, f.opts.RequestTimeout+f.opts.PollWait)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, f.opts.Leader+"/wal?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: tail request: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return f.handleConflict(resp)
	default:
		drain(resp.Body)
		return fmt.Errorf("repl: leader tail returned %s", resp.Status)
	}
	lpos, err := positionFromHeaders(resp.Header)
	if err != nil {
		return fmt.Errorf("repl: tail response: %w", err)
	}
	if lpos.ID != pos.id {
		return fmt.Errorf("%w: leader identity changed from %s to %s", errResync, pos.id, lpos.ID)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(f.opts.ChunkBytes)+frameSlack))
	if err != nil {
		return fmt.Errorf("repl: read tail body: %w", err)
	}
	f.noteContact(lpos)

	consumed, err := f.applyFrames(body)
	if err != nil {
		return err
	}
	if consumed == 0 && len(body) > 0 {
		f.zeroProgress++
		if f.zeroProgress >= zeroProgressLimit {
			f.zeroProgress = 0
			return fmt.Errorf("%w: %d consecutive reads at epoch %d offset %d yielded no decodable frame",
				errResync, zeroProgressLimit, pos.epoch, pos.offset)
		}
	} else {
		f.zeroProgress = 0
	}
	return nil
}

// frameSlack is how far past the requested chunk size a tail body may
// run (the leader caps by whole reads, not exact bytes).
const frameSlack = 1 << 16

// applyFrames decodes the CRC-framed records at the start of data and
// applies each to the follower's store, verifying that sequence
// numbers advance exactly one per record. It acknowledges (advances
// the follower position by) only fully applied frames, and returns
// errResync when the stream cannot be trusted any further: a sequence
// mismatch, or a batch that failed half-applied. Its error must never
// be discarded — an unhandled apply failure silently forks the
// follower from the leader (enforced by the walerr analyzer).
func (f *Follower) applyFrames(data []byte) (consumed int64, err error) {
	st := f.st.Load()
	expect := f.pos.nextSeq
	applied := int64(0)
	consumed, _, err = wal.DecodeFrames(data, func(seq uint64, b wal.Batch) error {
		if seq != expect {
			return fmt.Errorf("%w: expected record seq %d, leader sent %d", errResync, expect, seq)
		}
		if aerr := wal.ApplyBatch(st, b); aerr != nil {
			// The batch may be half-applied; this copy can no longer be
			// extended safely.
			return fmt.Errorf("%w: apply record %d: %v", errResync, seq, aerr)
		}
		expect++
		applied++
		return nil
	})
	if consumed > 0 || applied > 0 {
		f.ackApplied(consumed, expect, applied)
	}
	return consumed, err
}

// ackApplied advances the follower's replication cursor past frames
// that were fully applied, making the progress visible to Status and
// to the next tail request.
func (f *Follower) ackApplied(consumed int64, nextSeq uint64, records int64) {
	f.pos.offset += consumed
	f.pos.nextSeq = nextSeq
	f.publish()
	f.appliedRecords.Add(records)
}

// publish makes a copy of Run's position the one Status reads.
func (f *Follower) publish() {
	p := f.pos
	f.applied.Store(&p)
}

// handleConflict interprets the leader's 409: adopt the new epoch when
// this follower has provably applied everything the truncation folded
// into the leader's checkpoint, re-bootstrap otherwise.
func (f *Follower) handleConflict(resp *http.Response) error {
	var d Diverged
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&d); err != nil {
		return fmt.Errorf("%w: undecodable divergence response: %v", errResync, err)
	}
	pos := f.pos
	lp := d.Position
	if lp.ID == pos.id && lp.Epoch > pos.epoch && lp.EpochStartSeq == pos.nextSeq {
		// The leader checkpointed while we were caught up: every record
		// the truncation removed is already applied here. Adopt the new
		// epoch at offset zero and keep tailing.
		f.pos.epoch = lp.Epoch
		f.pos.offset = 0
		f.zeroProgress = 0
		f.publish()
		f.epochAdoptions.Add(1)
		f.noteContact(lp)
		f.logf("adopted leader epoch %d at offset 0 (seq %d)", lp.Epoch, lp.EpochStartSeq)
		return nil
	}
	return fmt.Errorf("%w: leader at epoch %d (start seq %d, id %s), follower at epoch %d offset %d (next seq %d)",
		errResync, lp.Epoch, lp.EpochStartSeq, lp.ID, pos.epoch, pos.offset, pos.nextSeq)
}

// noteContact records a successful leader interaction and the leader's
// end-of-log position for lag reporting.
func (f *Follower) noteContact(lpos wal.Position) {
	f.lastContactNanos.Store(time.Now().UnixNano())
	f.leaderOffset.Store(lpos.Offset)
	f.leaderNextSeq.Store(lpos.NextSeq)
}

// backoff returns the next jittered exponential delay and advances the
// attempt counter: base·2^attempt capped at max, with full jitter in
// [d/2, d] so a fleet of followers does not reconnect in lockstep.
func (f *Follower) backoff(attempt *int) time.Duration {
	d := f.opts.BackoffBase << min(*attempt, 20)
	if d <= 0 || d > f.opts.BackoffMax {
		d = f.opts.BackoffMax
	}
	if *attempt < 30 {
		*attempt++
	}
	half := int64(d / 2)
	if half > 0 {
		d = time.Duration(half + rand.Int63n(half+1))
	}
	return d
}

func (f *Follower) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf("repl: "+format, args...)
	}
}

// positionFromHeaders decodes the leader position headers present on
// snapshot and tail responses.
func positionFromHeaders(h http.Header) (wal.Position, error) {
	var p wal.Position
	p.ID = h.Get(HeaderID)
	if p.ID == "" {
		return p, fmt.Errorf("missing %s header", HeaderID)
	}
	var err error
	if p.Epoch, err = strconv.ParseUint(h.Get(HeaderEpoch), 10, 64); err != nil {
		return p, fmt.Errorf("bad %s header: %v", HeaderEpoch, err)
	}
	if p.Offset, err = strconv.ParseInt(h.Get(HeaderOffset), 10, 64); err != nil {
		return p, fmt.Errorf("bad %s header: %v", HeaderOffset, err)
	}
	if p.NextSeq, err = strconv.ParseUint(h.Get(HeaderSeq), 10, 64); err != nil {
		return p, fmt.Errorf("bad %s header: %v", HeaderSeq, err)
	}
	if v := h.Get(HeaderEpochStartSeq); v != "" {
		if p.EpochStartSeq, err = strconv.ParseUint(v, 10, 64); err != nil {
			return p, fmt.Errorf("bad %s header: %v", HeaderEpochStartSeq, err)
		}
	}
	return p, nil
}

func drain(r io.Reader) {
	io.Copy(io.Discard, io.LimitReader(r, 1<<16)) //nolint — best-effort connection reuse
}
