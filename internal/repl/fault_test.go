package repl_test

// The replication acceptance test (DESIGN.md §13): a follower tailing
// a leader through a proxy that drops connections, delays responses,
// and truncates bodies mid-frame at arbitrary byte offsets — plus a
// leader kill/restart-from-checkpoint in the middle — must still
// converge to a store byte-identical to the leader's last durable
// state.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/wal"
)

// fault modes the proxy injects, chosen per request.
const (
	passThrough = iota
	dropConn    // close the TCP connection without a response
	delayThenPass
	truncateDirty // short body under the original Content-Length: client read error
	truncateClean // short body re-framed as a complete response: client sees a prefix
)

// flakyProxy forwards requests to a retargetable backend, injecting
// the selected fault on a seeded schedule so runs are reproducible.
type flakyProxy struct {
	mu      sync.Mutex
	backend string
	rng     *rand.Rand
	healthy atomic.Bool // true = pass everything through
	faults  atomic.Int64
}

func (p *flakyProxy) setBackend(u string) {
	p.mu.Lock()
	p.backend = u
	p.mu.Unlock()
}

// pick chooses the fault mode and any random cut point under the lock
// so the rng is race-free.
func (p *flakyProxy) pick(bodyLen int) (mode int, cut int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.healthy.Load() {
		return passThrough, 0
	}
	switch n := p.rng.Intn(10); {
	case n < 4:
		mode = passThrough
	case n < 6:
		mode = dropConn
	case n < 7:
		mode = delayThenPass
	case n < 9:
		mode = truncateDirty
	default:
		mode = truncateClean
	}
	if bodyLen > 1 {
		cut = 1 + p.rng.Intn(bodyLen-1)
	}
	return mode, cut
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Decide connection-level faults before touching the backend.
	mode, _ := p.pick(0)
	switch mode {
	case dropConn:
		p.faults.Add(1)
		if hj, ok := w.(http.Hijacker); ok {
			if c, _, err := hj.Hijack(); err == nil {
				c.Close()
				return
			}
		}
		w.WriteHeader(http.StatusBadGateway)
		return
	case delayThenPass:
		p.faults.Add(1)
		time.Sleep(50 * time.Millisecond)
	}
	p.mu.Lock()
	backend := p.backend
	p.mu.Unlock()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	// Body-level faults cut at an arbitrary byte offset — including mid
	// CRC frame and mid snapshot line.
	mode, cut := p.pick(len(body))
	for k, vs := range resp.Header {
		if mode == truncateClean && k == "Content-Length" {
			continue // re-framed: the short body must look complete
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	switch mode {
	case truncateDirty:
		p.faults.Add(1)
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.WriteHeader(resp.StatusCode)
		w.Write(body[:cut])
		if hj, ok := w.(http.Hijacker); ok {
			if c, brw, err := hj.Hijack(); err == nil {
				brw.Flush()
				c.Close() // the client sees an unexpected EOF mid-body
			}
		}
	case truncateClean:
		p.faults.Add(1)
		w.WriteHeader(resp.StatusCode)
		w.Write(body[:cut])
	default:
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}
}

// leader bundles one leader incarnation.
type leader struct {
	st  *store.Store
	log *wal.Log
	srv *httptest.Server
}

func startLeader(t *testing.T, dir string) *leader {
	t.Helper()
	st, l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	h := httpapi.NewServer(st)
	h.AttachWAL(l)
	return &leader{st: st, log: l, srv: httptest.NewServer(h)}
}

func (ld *leader) stop() {
	ld.srv.CloseClientConnections()
	ld.srv.Close()
	ld.log.Close()
}

func postUpdate(t *testing.T, base, update string) {
	t.Helper()
	resp, err := http.PostForm(base+"/update",
		url.Values{"update": {update}, "model": {"m"}})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update returned %s", resp.Status)
	}
}

func snapshotBytes(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitConverged polls until the follower's position equals the
// leader's durable end of log.
func waitConverged(t *testing.T, f *repl.Follower, l *wal.Log, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		pos := l.Position()
		fs := f.Status()
		// The ID comparison matters: two distinct histories can have
		// numerically identical (epoch, offset, seq) coordinates.
		if fs.LeaderID == pos.ID && fs.Epoch == pos.Epoch &&
			fs.Offset == pos.Offset && fs.NextSeq == pos.NextSeq {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("follower did not converge: follower %+v, leader %+v", f.Status(), l.Position())
}

func followerOpts(leaderURL string, t *testing.T) repl.Options {
	return repl.Options{
		Leader:         leaderURL,
		RequestTimeout: 2 * time.Second,
		PollWait:       100 * time.Millisecond,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		Logf:           t.Logf,
	}
}

// TestFaultInjectionDifferential is the convergence differential: a
// faulty wire and a leader crash must never leave the follower with
// anything other than a byte-identical copy once the faults clear.
func TestFaultInjectionDifferential(t *testing.T) {
	dir := t.TempDir()
	ld := startLeader(t, dir)
	defer func() { ld.stop() }()

	proxy := &flakyProxy{rng: rand.New(rand.NewSource(42))}
	proxy.setBackend(ld.srv.URL)
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	f := repl.New(followerOpts(proxySrv.URL, t))
	ctx := t.Context()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	// Let the follower bootstrap over a healthy wire, then turn the
	// faults on for the whole write workload.
	proxy.healthy.Store(true)
	postUpdate(t, ld.srv.URL, `INSERT DATA { <http://v/seed> <http://p/v> "seed" }`)
	if _, err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	proxy.healthy.Store(false)

	for i := 0; i < 30; i++ {
		postUpdate(t, ld.srv.URL,
			fmt.Sprintf(`INSERT DATA { <http://v/%d> <http://p/v> "val-%d" }`, i, i))
		// Pace the workload so tail cycles interleave with the writes
		// and plenty of requests cross the faulty wire.
		time.Sleep(10 * time.Millisecond)
		if i%7 == 3 {
			postUpdate(t, ld.srv.URL,
				fmt.Sprintf(`DELETE DATA { <http://v/%d> <http://p/v> "val-%d" }`, i-1, i-1))
		}
		if i == 10 {
			if err := ld.log.Checkpoint(ld.st); err != nil {
				t.Fatal(err)
			}
		}
		if i == 20 {
			// Kill the leader mid-stream and restart it from its
			// checkpoint + log tail. Identity and epoch survive in
			// repl.meta, so the follower resumes without re-bootstrap.
			ld.stop()
			ld = startLeader(t, dir)
			proxy.setBackend(ld.srv.URL)
		}
	}

	// Heal the wire and require exact convergence.
	proxy.healthy.Store(true)
	waitConverged(t, f, ld.log, 30*time.Second)

	want := snapshotBytes(t, ld.st)
	got := snapshotBytes(t, f.Store())
	if !bytes.Equal(want, got) {
		t.Fatalf("follower snapshot differs from leader after convergence:\nleader %d bytes\nfollower %d bytes",
			len(want), len(got))
	}
	if proxy.faults.Load() == 0 {
		t.Fatal("the proxy injected no faults; the differential proved nothing")
	}
	st := f.Status()
	if st.RetryErrors == 0 {
		t.Errorf("no retried errors recorded despite %d injected faults", proxy.faults.Load())
	}
	t.Logf("converged through %d injected faults: %+v", proxy.faults.Load(), st)
}

// TestFollowerRebootstrapsOnLeaderIdentityChange replaces the leader
// with a brand-new history (fresh data dir, fresh replication ID); the
// follower must detect the divergence and re-bootstrap rather than
// graft the new log onto the old store.
func TestFollowerRebootstrapsOnLeaderIdentityChange(t *testing.T) {
	ldA := startLeader(t, t.TempDir())
	postUpdate(t, ldA.srv.URL, `INSERT DATA { <http://v/a> <http://p/v> "from-A" }`)

	proxy := &flakyProxy{rng: rand.New(rand.NewSource(1))}
	proxy.healthy.Store(true)
	proxy.setBackend(ldA.srv.URL)
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	f := repl.New(followerOpts(proxySrv.URL, t))
	ctx := t.Context()
	go f.Run(ctx)
	if _, err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, ldA.log, 10*time.Second)

	ldB := startLeader(t, t.TempDir())
	defer ldB.stop()
	postUpdate(t, ldB.srv.URL, `INSERT DATA { <http://v/b> <http://p/v> "from-B" }`)
	ldA.stop()
	proxy.setBackend(ldB.srv.URL)

	waitConverged(t, f, ldB.log, 10*time.Second)
	if !bytes.Equal(snapshotBytes(t, ldB.st), snapshotBytes(t, f.Store())) {
		t.Fatal("follower did not adopt the new leader's state")
	}
	st := f.Status()
	if st.Divergences == 0 || st.Bootstraps < 2 {
		t.Fatalf("expected a divergence-driven re-bootstrap, got %+v", st)
	}
}

// TestStaleness covers the explicit degradation contract: with no
// ceiling stale reads are always served; with a ceiling, Stale flips
// once the leader has been silent too long.
func TestStaleness(t *testing.T) {
	f := repl.New(repl.Options{Leader: "http://127.0.0.1:0"})
	if f.Stale() {
		t.Fatal("MaxStaleness=0 must never refuse reads")
	}
	f = repl.New(repl.Options{Leader: "http://127.0.0.1:0", MaxStaleness: 10 * time.Millisecond})
	if !f.Stale() {
		t.Fatal("a follower that has never reached its leader is stale under a ceiling")
	}
	st := f.Status()
	if !st.Degraded || st.LastContactMS != -1 {
		t.Fatalf("never-contacted follower must report degraded: %+v", st)
	}
}
