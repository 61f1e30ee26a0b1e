package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one hmtsd process on an ephemeral loopback port. Every run
// gets a fresh one, so no run inherits heap or goroutines from another.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // just before exec
	stderr  *stderrLog
	exited  chan struct{} // closed once the process is reaped
	waitErr error
}

// stderrLog keeps the daemon's stderr for the run record and reports the
// listen address hmtsd logs once it is accepting connections.
type stderrLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrc chan string
	sent  bool
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		s := l.buf.String()
		if i := strings.Index(s, "listening on "); i >= 0 {
			rest := s[i+len("listening on "):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				l.addrc <- strings.TrimSpace(rest[:j])
				l.sent = true
			}
		}
	}
	return len(p), nil
}

func (l *stderrLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon execs bin and waits until it listens.
func startDaemon(bin string, gomaxprocs int) (*daemon, error) {
	d := &daemon{stderr: &stderrLog{addrc: make(chan string, 1)}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	d.cmd.Stderr = d.stderr
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hmtsd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-d.stderr.addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("hmtsd exited before listening: %v\n%s", d.waitErr, d.stderr)
	case <-time.After(10 * time.Second):
		err := d.kill()
		return nil, errors.Join(fmt.Errorf("hmtsd did not listen within 10s\n%s", d.stderr), err)
	}
}

// kill stops and reaps the daemon and fails if the process is still
// there afterwards.
func (d *daemon) kill() error {
	pid := d.cmd.Process.Pid
	_ = d.cmd.Process.Kill() // fails only if it already exited; the wait below covers both
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("hmtsd pid %d not reaped 10s after SIGKILL", pid)
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("hmtsd pid %d still present after kill", pid)
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's utime+stime.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procRuntime returns the CPU time every thread of a process has spent
// running (the first field of /proc/<pid>/task/<tid>/schedstat, in ns).
// Unlike /proc/<pid>/stat it has nanosecond resolution.
func procRuntime(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited meanwhile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat for task %s: %w", t.Name(), err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU returns the host's steal and total CPU ticks from /proc/stat:
// time the hypervisor ran someone else while this VM wanted a CPU.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// selfCPU returns this process's user+system CPU.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
