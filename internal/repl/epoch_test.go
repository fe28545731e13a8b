package repl_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/store/storetest"
)

// TestFollowerAdoptsEpochOfFullCheckpoint: a caught-up follower adopts
// the epoch a leader's full checkpoint opens, in place — one epoch
// adoption, still one bootstrap — and keeps that epoch across a
// not-due incremental request, which truncates nothing.
func TestFollowerAdoptsEpochOfFullCheckpoint(t *testing.T) {
	ld := startLeader(t, t.TempDir())
	defer ld.stop()
	postUpdate(t, ld.srv.URL, `INSERT DATA { <http://v/a> <http://p/v> "1" }`)

	f := repl.New(followerOpts(ld.srv.URL, t))
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() { cancel(); <-done }()
	if _, err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, ld.log, 10*time.Second)

	if err := ld.log.Checkpoint(ld.st); err != nil {
		t.Fatal(err)
	}
	postUpdate(t, ld.srv.URL, `INSERT DATA { <http://v/b> <http://p/v> "2" }`)
	waitConverged(t, f, ld.log, 10*time.Second)
	if st := f.Status(); st.Epoch != 1 || st.EpochAdoptions != 1 || st.Bootstraps != 1 {
		t.Fatalf("after the full checkpoint: %+v, want epoch 1, 1 adoption, 1 bootstrap", st)
	}

	if err := ld.log.CheckpointIncremental(ld.st); err != nil {
		t.Fatal(err)
	}
	if ws := ld.log.Stats(); ws.Checkpoints != 1 || ws.WalRecords != 1 {
		t.Fatalf("the incremental request checkpointed: %+v", ws)
	}
	postUpdate(t, ld.srv.URL, `INSERT DATA { <http://v/c> <http://p/v> "3" }`)
	waitConverged(t, f, ld.log, 10*time.Second)
	if st := f.Status(); st.Epoch != 1 || st.EpochAdoptions != 1 || st.Bootstraps != 1 {
		t.Fatalf("after the incremental request: %+v, want epoch 1, 1 adoption, 1 bootstrap", st)
	}
	if storetest.Fingerprint(ld.st.View()) != storetest.Fingerprint(f.Store().View()) {
		t.Fatal("follower differs from leader")
	}
}
