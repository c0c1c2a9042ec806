package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	tenantToken = "bench-token"
	// tenantDelta is the per-query δ. The paper's 1e-15 exhausts a
	// 4 M-row scramble on most statements, which would hide early
	// stopping, the thing the paper optimises.
	tenantDelta = 0.01
)

// buildServer compiles cmd/ffserved from the checkout into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "ffserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ffserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building ffserved: %w", err)
	}
	return bin, nil
}

// server is one running ffserved child.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns ffserved on the table file and returns once
// /healthz answers ok. The child logs to logPath.
func startServer(ctx context.Context, bin, tablePath, logPath string, w workload, seed uint64) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-table", "flights="+tablePath,
		"-token", fmt.Sprintf("bench=%s,delta=%g", tenantToken, tenantDelta),
		"-seed", strconv.FormatUint(seed, 10),
		"-pool-bytes", strconv.FormatInt(w.poolBytes, 10),
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ffserved: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	deadline := time.Now().Add(60 * time.Second)
	for {
		if s.healthy(ctx) {
			return s, nil
		}
		select {
		case err := <-s.done:
			logf.Close()
			return nil, fmt.Errorf("ffserved exited during start-up (%v); see %s", err, logPath)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ffserved not healthy after 60 s; see %s", logPath)
		}
	}
}

func (s *server) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	return json.NewDecoder(resp.Body).Decode(&body) == nil && body.Status == "ok"
}

// stop sends SIGTERM and waits for the child; a clean drain exits 0.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("ffserved did not drain cleanly: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("ffserved still running 30 s after SIGTERM; killed")
	}
}

// kill is the last resort on error paths; it waits for the exit.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.log.Close()
}

// stats fetches /v1/stats: the server's own counters, kept in the
// report beside the client's.
func (s *server) stats(ctx context.Context) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+tenantToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil || !json.Valid(raw) {
		return nil, fmt.Errorf("/v1/stats: unreadable body (%v)", err)
	}
	return raw, nil
}

// cpuTime is the child's user + system CPU time so far, to the
// nanosecond: one request's cost is far below /proc's 10 ms tick.
func (s *server) cpuTime() (time.Duration, error) {
	return processCPUTime(s.cmd.Process.Pid)
}

// rssPeakMB is the child's VmHWM from /proc/<pid>/status.
func (s *server) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
