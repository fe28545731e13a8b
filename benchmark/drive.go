package main

// The load generator: a closed loop of callers that wait for a reply —
// application servers holding a small connection pool. Each pass
// replays one fixed request list from a shared cursor over keep-alive
// connections, one per client.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/sparql"
)

// passResult is what one replay of a list measured.
type passResult struct {
	wall      time.Duration
	lat       []time.Duration // by request index
	bodyLen   []int           // by request index
	failed    int
	firstFail string
	serverCPU procTimes     // child's CPU spent during the pass
	clientCPU time.Duration // harness CPU spent during the pass
}

func (p passResult) rps() float64 { return float64(len(p.lat)) / p.wall.Seconds() }

// checkFunc judges one response after its latency has been taken; it
// returns "" or the reason the request counts as failed. It runs on the
// client goroutines and must only read shared state.
type checkFunc func(i int, status int, body []byte) string

// driver holds one keep-alive connection per client for the passes,
// and an ordinary http.Client for control requests between them.
type driver struct {
	srv     *server
	client  *http.Client
	clients int
	conns   []*clientConn
}

func newDriver(srv *server, clients int) *driver {
	return &driver{srv: srv, clients: clients, client: &http.Client{Timeout: 20 * time.Second}}
}

func (d *driver) close() {
	d.client.CloseIdleConnections()
	for _, c := range d.conns {
		c.conn.Close()
	}
	d.conns = nil
}

// clientConn is one caller's connection. Requests are written as bytes
// and replies read with http.ReadResponse on the same goroutine: an
// http.Client would spend a third of a core on this machine's two, and
// the server under test would be measured fighting its own load
// generator for CPU.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	out  []byte
}

func (d *driver) dial() (*clientConn, error) {
	host := strings.TrimPrefix(d.srv.base, "http://")
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &clientConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), host: host}, nil
}

// do sends one request and returns the status with the body in buf. A
// reply that does not come within 20 s is an error: the server hangs.
func (c *clientConn) do(r request, buf *bytes.Buffer) (int, error) {
	c.out = append(c.out[:0], "POST "...)
	c.out = append(c.out, r.Path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.host...)
	c.out = append(c.out, "\r\nContent-Type: "...)
	c.out = append(c.out, r.contentType()...)
	c.out = append(c.out, "\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(r.Body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, r.Body...)
	if err := c.conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// get fetches a control endpoint (/stats, /metrics) outside any pass.
func (d *driver) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.srv.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// query sends one read outside any pass and parses the reply.
func (d *driver) query(text string) (*sparql.Results, error) {
	r := readRequest("", text)
	resp, err := d.client.Post(d.srv.base+r.Path, r.contentType(), strings.NewReader(r.Body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /sparql: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	res, _, err := httpapi.ParseResultsJSON(resp.Body)
	return res, err
}

// pass replays list with the driver's clients and judges every reply.
func (d *driver) pass(list []request, check checkFunc) (passResult, error) {
	res := passResult{lat: make([]time.Duration, len(list)), bodyLen: make([]int, len(list))}
	for len(d.conns) < d.clients {
		c, err := d.dial()
		if err != nil {
			return res, err
		}
		d.conns = append(d.conns, c)
	}
	cpu0, err := readProcTimes(d.srv.pid)
	if err != nil {
		return res, err
	}
	self0 := selfCPU()
	var next atomic.Int64
	var failed atomic.Int64
	var failOnce sync.Once
	var transport atomic.Pointer[error] // a reply that never came: stop the pass
	var wg sync.WaitGroup
	start := time.Now()
	for _, conn := range d.conns {
		wg.Add(1)
		go func(conn *clientConn) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) || transport.Load() != nil {
					return
				}
				t0 := time.Now()
				status, err := conn.do(list[i], &buf)
				res.lat[i] = time.Since(t0)
				res.bodyLen[i] = buf.Len()
				why := ""
				if err != nil {
					why = err.Error()
					transport.CompareAndSwap(nil, &err)
				} else {
					why = check(i, status, buf.Bytes())
				}
				if why != "" {
					failed.Add(1)
					failOnce.Do(func() { res.firstFail = fmt.Sprintf("request %d (%s): %s", i, list[i].Class, why) })
				}
			}
		}(conn)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.failed = int(failed.Load())
	res.clientCPU = selfCPU() - self0
	if err := transport.Load(); err != nil {
		return res, fmt.Errorf("%s; the server hangs or is gone: %s", res.firstFail, strings.TrimSpace(d.srv.stderr.String()))
	}
	if !d.srv.alive() {
		return res, fmt.Errorf("server exited during the pass: %s", strings.TrimSpace(d.srv.stderr.String()))
	}
	cpu1, err := readProcTimes(d.srv.pid)
	if err != nil {
		return res, err
	}
	res.serverCPU = procTimes{user: cpu1.user - cpu0.user, sys: cpu1.sys - cpu0.sys}
	return res, nil
}

// quantile returns the q-quantile (nearest rank) of durations in ms.
func quantile(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / float64(time.Millisecond)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// classLatencies groups one pass's latencies by request class, with all
// SPARQL reads also under "read".
func classLatencies(list []request, lat []time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for i, r := range list {
		out[r.Class] = append(out[r.Class], lat[i])
		if r.Path == "/sparql" {
			out["read"] = append(out["read"], lat[i])
		}
	}
	return out
}

// scrape reads /metrics and sums every sample by metric name, so
// per-index and per-form families collapse to one number each.
func (d *driver) scrape() (map[string]float64, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue // cumulative: summing buckets means nothing
		}
		out[name] += v
	}
	return out, nil
}
