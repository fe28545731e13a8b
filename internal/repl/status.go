package repl

import "time"

// State is the follower's replication lifecycle state.
type State int32

const (
	// StateBootstrapping: fetching or restoring a leader snapshot; no
	// store is being extended (the previous one, if any, still serves).
	StateBootstrapping State = iota
	// StateTailing: the follower holds a consistent copy and is
	// streaming the leader's log.
	StateTailing
)

func (s State) String() string {
	switch s {
	case StateBootstrapping:
		return "bootstrapping"
	case StateTailing:
		return "tailing"
	default:
		return "unknown"
	}
}

// Status is a point-in-time view of the follower's replication
// progress, surfaced verbatim in /stats and as pgrdf_repl_* metrics.
type Status struct {
	Leader string `json:"leader"`
	State  string `json:"state"`
	// Degraded is true when the last successful leader contact is older
	// than the configured threshold — reads are being served stale.
	Degraded bool `json:"degraded"`

	// Position in the leader's history.
	LeaderID string `json:"leader_id"`
	Epoch    uint64 `json:"epoch"`
	Offset   int64  `json:"offset"`
	NextSeq  uint64 `json:"next_seq"`

	// Lag against the leader's last reported end of log.
	LeaderOffset  int64   `json:"leader_offset"`
	BytesBehind   int64   `json:"bytes_behind"`
	RecordsBehind int64   `json:"records_behind"`
	LastContactMS float64 `json:"last_contact_ms"` // -1 = never

	// Lifetime counters.
	AppliedRecords int64 `json:"applied_records"`
	Bootstraps     int64 `json:"bootstraps"`
	Divergences    int64 `json:"divergences"`
	EpochAdoptions int64 `json:"epoch_adoptions"`
	RetryErrors    int64 `json:"retry_errors"`
	StaleRejected  int64 `json:"stale_rejected"`
}

// Status reports the follower's current replication state and lag.
func (f *Follower) Status() Status {
	pos := f.applied.Load()
	s := Status{
		Leader:         f.opts.Leader,
		State:          State(f.state.Load()).String(),
		LeaderID:       pos.id,
		Epoch:          pos.epoch,
		Offset:         pos.offset,
		NextSeq:        pos.nextSeq,
		LeaderOffset:   f.leaderOffset.Load(),
		LastContactMS:  -1,
		AppliedRecords: f.appliedRecords.Load(),
		Bootstraps:     f.bootstraps.Load(),
		Divergences:    f.divergences.Load(),
		EpochAdoptions: f.epochAdoptions.Load(),
		RetryErrors:    f.retryErrors.Load(),
		StaleRejected:  f.staleRejected.Load(),
	}
	if age, ok := f.contactAge(); ok {
		s.LastContactMS = float64(age) / float64(time.Millisecond)
		s.Degraded = age > f.opts.DegradedAfter
	} else {
		s.Degraded = true
	}
	if d := s.LeaderOffset - s.Offset; d > 0 {
		s.BytesBehind = d
	}
	if ls := f.leaderNextSeq.Load(); ls > pos.nextSeq {
		s.RecordsBehind = int64(ls - pos.nextSeq)
	}
	return s
}

// contactAge returns the age of the last successful leader contact.
func (f *Follower) contactAge() (time.Duration, bool) {
	n := f.lastContactNanos.Load()
	if n == 0 {
		return 0, false
	}
	return time.Duration(time.Now().UnixNano() - n), true
}

// Stale reports whether reads must be refused under the configured
// staleness ceiling (MaxStaleness = 0 never refuses). The HTTP layer
// answers true with 503 + Retry-After.
func (f *Follower) Stale() bool {
	if f.opts.MaxStaleness <= 0 {
		return false
	}
	age, ok := f.contactAge()
	return !ok || age > f.opts.MaxStaleness
}

// NoteStaleRejected counts a read refused for staleness.
func (f *Follower) NoteStaleRejected() { f.staleRejected.Add(1) }

// RetryAfter suggests how long a client refused for staleness should
// wait before retrying.
func (f *Follower) RetryAfter() time.Duration {
	d := f.opts.BackoffMax
	if d < time.Second {
		d = time.Second
	}
	return d
}
