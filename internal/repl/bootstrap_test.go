package repl_test

import (
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/repl"
)

// sectionBoundaries returns every offset of a binary snapshot at which
// a section frame begins: after the 8-byte magic, then after each
// u8 type | u64le length | payload | u32le CRC frame up to the trailer.
func sectionBoundaries(t *testing.T, snap []byte) []int {
	t.Helper()
	cuts := []int{0}
	for off := 8; off < len(snap); {
		cuts = append(cuts, off)
		if len(snap)-off < 9 {
			t.Fatalf("frame header at %d runs past the %d-byte snapshot", off, len(snap))
		}
		off += 13 + int(binary.LittleEndian.Uint64(snap[off+1:]))
	}
	return cuts
}

// TestBootstrapRefusesTruncatedSnapshot serves a follower a leader's
// snapshot with its valid position headers, cut at every section
// boundary and at a seeded sample of interior offsets, each as a
// complete HTTP response. The follower must refuse every cut body in
// RestoreBinary: no bootstrap counted, a retry, no position adopted and
// no store. The whole body is the control: it bootstraps.
func TestBootstrapRefusesTruncatedSnapshot(t *testing.T) {
	ld := startLeader(t, t.TempDir())
	defer ld.stop()
	for i := 0; i < 20; i++ {
		postUpdate(t, ld.srv.URL, `INSERT DATA { <http://v/`+strconv.Itoa(i)+`> <http://p/v> "x" }`)
	}
	resp, err := http.Get(ld.srv.URL + "/export?format=snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s, %v", resp.Status, err)
	}
	header := resp.Header

	cuts := sectionBoundaries(t, snap)
	if len(cuts) < 8 {
		t.Fatalf("only %d section boundaries in a %d-byte snapshot", len(cuts), len(snap))
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 32; i++ {
		cuts = append(cuts, 1+rng.Intn(len(snap)-1))
	}

	// bootstrapFrom runs a follower against a leader that serves body
	// until the follower has asked for the snapshot three times or has
	// bootstrapped.
	bootstrapFrom := func(body []byte) (repl.Status, *repl.Follower, int64) {
		var requests atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/export" {
				http.NotFound(w, r)
				return
			}
			requests.Add(1)
			for k, vs := range header {
				w.Header()[k] = vs
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		}))
		defer srv.Close()
		opts := followerOpts(srv.URL, t)
		opts.BackoffBase, opts.BackoffMax = time.Millisecond, time.Millisecond
		refused := refusedSnapshots(&opts)
		f := repl.New(opts)
		ctx, cancel := context.WithCancel(t.Context())
		done := make(chan struct{})
		go func() { defer close(done); f.Run(ctx) }()
		for deadline := time.Now().Add(10 * time.Second); requests.Load() < 3 && f.Store() == nil; {
			if time.Now().After(deadline) {
				t.Fatalf("%d-byte body: follower made %d snapshot requests in 10s", len(body), requests.Load())
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		<-done
		return f.Status(), f, refused.Load()
	}

	for _, cut := range cuts {
		st, f, refused := bootstrapFrom(snap[:cut])
		if st.Bootstraps != 0 || f.Store() != nil {
			t.Fatalf("cut at %d of %d bytes: bootstrapped (%+v)", cut, len(snap), st)
		}
		if st.RetryErrors < 2 || refused != st.RetryErrors {
			t.Fatalf("cut at %d of %d bytes: %d retries, %d refused by RestoreBinary", cut, len(snap), st.RetryErrors, refused)
		}
		if st.LeaderID != "" || st.Epoch != 0 || st.Offset != 0 || st.NextSeq != 0 {
			t.Fatalf("cut at %d of %d bytes: adopted a position (%+v)", cut, len(snap), st)
		}
	}

	st, f, _ := bootstrapFrom(snap)
	pos := ld.log.Position()
	if st.Bootstraps != 1 || f.Store() == nil || f.Store().View().Len() != 20 {
		t.Fatalf("whole body did not bootstrap: %+v", st)
	}
	if st.LeaderID != pos.ID || st.Epoch != pos.Epoch || st.Offset != pos.Offset || st.NextSeq != pos.NextSeq {
		t.Fatalf("whole body adopted %+v, leader is at %+v", st, pos)
	}
}
