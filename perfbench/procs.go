package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child process the benchmark started.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{}
	waitErr error
}

// children tracks every daemon started, so each exit path (a failed
// check, an error, an interrupt) can stop them all.
var children struct {
	mu   sync.Mutex
	list []*daemon
}

// freeAddr reserves a free loopback port and returns its address. The
// port is released before the daemon binds it; a collision shows up as a
// failed readiness check.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve loopback port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("release loopback port: %w", err)
	}
	return addr, nil
}

// startDaemon launches bin with args, logging to dir/<name>.log. The child
// gets SIGKILL if this process dies without stopping it.
func startDaemon(name, bin string, args []string, dir string) (*daemon, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	children.mu.Lock()
	children.list = append(children.list, d)
	children.mu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		f.Close()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls url until it answers 200, the daemon exits, or the
// timeout passes.
func (d *daemon) waitReady(ctx context.Context, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before ready (%v): %s", d.name, d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %s", d.name, timeout, d.logTail())
		}
	}
}

// alive reports whether the daemon is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM, waits for a graceful exit, and kills the daemon if
// it does not exit in time. It returns once the process has ended.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// logTail returns the end of the daemon's log for error messages.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return "(no log)"
	}
	s := strings.TrimSpace(string(b))
	if len(s) > 800 {
		s = "..." + s[len(s)-800:]
	}
	return s
}

// stopAll stops every daemon still running.
func stopAll() {
	children.mu.Lock()
	list := children.list
	children.list = nil
	children.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
}

// stopDaemons stops the given daemons concurrently and forgets them.
func stopDaemons(ds ...*daemon) {
	var wg sync.WaitGroup
	for _, d := range ds {
		if d == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
	children.mu.Lock()
	kept := children.list[:0]
	for _, c := range children.list {
		if c.alive() {
			kept = append(kept, c)
		}
	}
	children.list = kept
	children.mu.Unlock()
}

// httpGet fetches url and returns the body; non-2xx is an error.
func httpGet(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// scrape reads and parses a Prometheus /metrics endpoint.
func scrape(ctx context.Context, c *http.Client, url string) (promSet, error) {
	body, err := httpGet(ctx, c, url)
	if err != nil {
		return nil, err
	}
	return parseProm(strings.NewReader(string(body)))
}

// daemonMem reads a daemon's allocation and GC totals from its -pprof
// listener.
func daemonMem(ctx context.Context, c *http.Client, pprofAddr string) (goMem, error) {
	body, err := httpGet(ctx, c, "http://"+pprofAddr+"/debug/pprof/heap?debug=1")
	if err != nil {
		return goMem{}, err
	}
	return parseHeapDebug(strings.NewReader(string(body)))
}
