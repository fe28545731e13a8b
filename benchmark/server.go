package main

// Process hygiene for the server under test: a free port per start, a
// refusal to run against a port that already answers, and a registry
// that kills and reaps every child and removes every temp dir on every
// exit path. A leaked server from an earlier run once answered the next
// run's queries from another scheme's dataset; nothing here may leak.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hygiene tracks what the run must undo. cleanup is safe to call more
// than once and from the signal goroutine.
type hygiene struct {
	mu      sync.Mutex
	servers map[*server]struct{}
	dirs    []string
}

func newHygiene() *hygiene { return &hygiene{servers: map[*server]struct{}{}} }

func (h *hygiene) tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs = append(h.dirs, dir)
	h.mu.Unlock()
	return dir, nil
}

func (h *hygiene) cleanup() {
	h.mu.Lock()
	servers := make([]*server, 0, len(h.servers))
	for s := range h.servers {
		servers = append(servers, s)
	}
	dirs := h.dirs
	h.dirs = nil
	h.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// server is one `pgrdf serve` child process.
type server struct {
	h      *hygiene
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	pid    int
	stderr *bytes.Buffer
	exited chan struct{} // closed once the child has been reaped
	setup  time.Duration // exec → first 200 from /stats
	once   sync.Once
}

// freePort asks the kernel for an unused port, then verifies nothing
// answers on it before the caller execs a server there.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, err
	}
	c, err := net.DialTimeout("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)), 200*time.Millisecond)
	if err == nil {
		c.Close()
		return 0, fmt.Errorf("port %d already answers before exec: a server from another run is alive", port)
	}
	return port, nil
}

// startServer execs `pgrdf serve` with args on a fresh port and waits
// for the first 200 from /stats. The child gets SIGKILL if the harness
// dies without cleaning up.
func (h *hygiene) startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	s := &server{h: h, base: "http://" + addr, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	s.pid = s.cmd.Process.Pid
	h.mu.Lock()
	h.servers[s] = struct{}{}
	h.mu.Unlock()
	go func() {
		s.cmd.Wait() //nolint:errcheck // the exit status of a killed child carries nothing
		close(s.exited)
	}()

	// A dedicated client: the probe connection must not be one of the
	// keep-alive connections the passes measure.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		default:
		}
		resp, err := probe.Get(s.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("server did not answer /stats within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// alive reports whether the child is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits until the child has been reaped.
func (s *server) kill() {
	s.once.Do(func() {
		s.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		<-s.exited
		s.h.mu.Lock()
		delete(s.h.servers, s)
		s.h.mu.Unlock()
	})
}

// procTimes is the child's CPU use so far, from /proc/<pid>/stat.
type procTimes struct{ user, sys time.Duration }

func (p procTimes) total() time.Duration { return p.user + p.sys }

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

func readProcTimes(pid int) (procTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procTimes{}, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return procTimes{}, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procTimes{}, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return procTimes{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}, nil
}

// readRSSMB returns the child's resident set in MB, from /proc/<pid>/statm.
func readRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// selfCPU is the harness's own CPU use so far (is the generator the
// bottleneck?).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
