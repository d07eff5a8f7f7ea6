package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one gapd child process.
type node struct {
	id   string
	url  string
	log  string // path of the file that receives its output
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// startNode spawns gapd with args plus an -addr on the given loopback
// port. The child is killed if the benchmark itself dies, so an
// interrupted run leaves no daemon behind.
func startNode(bin, id, logPath string, port int, args []string) (*node, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	n := &node{id: id, url: "http://" + addr, log: logPath, done: make(chan struct{})}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("gapd %s log: %w", id, err)
	}
	n.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	n.cmd.Stdout = logf
	n.cmd.Stderr = logf
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = n.cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start gapd %s: %w", id, err)
	}
	go func() {
		_ = n.cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; gapd binds them again immediately after.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitReady polls GET /healthz until it answers 200.
func (n *node) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-n.done:
			return fmt.Errorf("gapd %s exited during boot: %s", n.id, n.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gapd %s not ready after 30s: %s", n.id, n.logTail())
		}
	}
}

// stop sends sig and waits for the process to end, killing it if it is
// still running after grace.
func (n *node) stop(sig syscall.Signal, grace time.Duration) error {
	select {
	case <-n.done:
		return nil
	default:
	}
	if err := n.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal gapd %s: %w", n.id, err)
	}
	select {
	case <-n.done:
		return nil
	case <-time.After(grace):
	}
	_ = n.cmd.Process.Kill()
	<-n.done
	return fmt.Errorf("gapd %s ignored %v for %v and was killed", n.id, sig, grace)
}

// cpuTicks reads utime+stime of the process, in clock ticks (1/100 s on
// Linux), from /proc/<pid>/stat.
func (n *node) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for gapd %s", n.id)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat for gapd %s: %w", n.id, err)
	}
	return utime + stime, nil
}

// rssKB reads VmRSS, the process's resident set, in KiB.
func (n *node) rssKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS for gapd %s", n.id)
}

// logTail returns the last lines gapd wrote, for error messages.
func (n *node) logTail() string {
	b, _ := os.ReadFile(n.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
