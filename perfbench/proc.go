package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one launched server-role process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
	setup []span // the launch's set-up stages
	// readyS is the time from launch to the first 200 answer of
	// /v1/healthz/ready.
	readyS float64
	exited bool
}

// procs tracks every launched server so that an error path can stop
// them all and wait for each.
var procs struct {
	mu   sync.Mutex
	list []*serverProc
}

// launch starts the server role with args and waits for its first
// ready answer. logPath receives the server's standard error.
func launch(logPath string, args ...string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	cmd.Stderr = logf
	// A server must not outlive the load process, even when that is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	procs.mu.Lock()
	procs.list = append(procs.list, p)
	procs.mu.Unlock()
	if p.addr, err = readLine(p.out, "addr "); err != nil {
		return nil, fmt.Errorf("%w: %s", err, logTail(logPath))
	}
	setup, err := readLine(p.out, "ready ")
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, logTail(logPath))
	}
	c, err := dialHTTP(p.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var health struct{ Ready bool }
	if err := c.getJSON("/v1/healthz/ready", &health); err != nil || !health.Ready {
		return nil, fmt.Errorf("server not ready after its ready line: %v", err)
	}
	p.readyS = time.Since(t0).Seconds()
	if err := json.Unmarshal([]byte(setup), &p.setup); err != nil {
		return nil, fmt.Errorf("ready line: %w", err)
	}
	return p, nil
}

// logTail returns the end of a server log, for error messages.
func logTail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// kill stops the process with SIGKILL and reaps it.
func (p *serverProc) kill() {
	if p.exited {
		return
	}
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.stdin.Close()
	p.cmd.Wait()
	p.exited = true
}

// drain sends SIGTERM and waits for the "drained" line: every mutation
// applied, compaction finished, state persisted. The process keeps
// answering queries until finish.
func (p *serverProc) drain() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	_, err := readLine(p.out, "drained")
	return err
}

// finish closes stdin, letting a drained server shut down, and waits
// for it to exit cleanly.
func (p *serverProc) finish() error {
	p.stdin.Close()
	err := p.cmd.Wait()
	p.exited = true
	return err
}

// stopAll kills every server still running and waits for each.
func stopAll() {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	for _, p := range procs.list {
		p.kill()
	}
	procs.list = nil
}

// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat times,
// 100 on every Linux ABI this runs on.
const userHZ = 100

// cpuSeconds returns the process's utime+stime.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (ut + st) / userHZ, nil
}

// cpuTicks returns the machine's steal and total CPU ticks so far, from
// the first eight fields of /proc/stat's cpu line (zeros if unreadable).
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
