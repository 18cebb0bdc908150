package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vrdfcap/internal/serve"
)

// serverFlags are the only flags vrdfserve gets: every other setting is
// the production default.
var serverFlags = []string{"-addr", "127.0.0.1:0"}

// server is one running vrdfserve process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:PORT
	drained chan struct{}
}

// startServer spawns vrdfserve and returns once /healthz answers 200.
func startServer(path string) (*server, error) {
	cmd := exec.Command(path, serverFlags...)
	cmd.Stderr = os.Stderr
	// Take the server down with us if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vrdfserve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(s.drained)
	}()
	const prefix = "vrdfserve listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		s.stop()
		return nil, fmt.Errorf("vrdfserve did not report its address (got %q, %v)", line, err)
	}
	s.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("vrdfserve at %s never answered /healthz: %v", s.base, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop ends the server with SIGTERM (graceful drain), falling back to
// SIGKILL, and waits for the process to exit.
func (s *server) stop() {
	if s == nil || s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait()
	s.cmd = nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stats reads /statsz.
func (s *server) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(s.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// userHZ is the clock-tick rate of /proc/<pid>/stat times; Linux fixes it
// at 100 for user space.
const userHZ = 100

// cpuTime returns the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is field 3, utime 14, stime 15.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// procStatus returns one "Key: value" field of /proc/<pid>/status.
func procStatus(pid int, key string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// peakRSSMB returns the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad VmHWM %q", v)
	}
	return kb / 1024, nil
}

// serverGOMAXPROCS is the GOMAXPROCS the server runs with: the GOMAXPROCS
// environment variable it inherits if set, else the Go runtime's default,
// the number of CPUs in its affinity mask.
func serverGOMAXPROCS(pid int) string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v + " (from the environment)"
	}
	list, err := procStatus(pid, "Cpus_allowed_list")
	if err != nil {
		return "unknown"
	}
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err1 := strconv.Atoi(lo)
		b := a
		var err2 error
		if isRange {
			b, err2 = strconv.Atoi(hi)
		}
		if err1 != nil || err2 != nil {
			return "unknown"
		}
		n += b - a + 1
	}
	return strconv.Itoa(n) + " (CPUs in its affinity mask)"
}
