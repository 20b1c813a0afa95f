package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark leaves behind goes, relative
// to the module root: built programs, per-run logs, traces and reports.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the directory holding
// the dynasym go.mod: the programs under test are built from source there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module dynasym\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no dynasym go.mod at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildPrograms compiles cmd/asymd and cmd/asymbench into the build
// directory and reports how long that took. go's own cache makes a repeat
// build of unchanged sources a sub-second check.
func buildPrograms(root string) (binDir string, took time.Duration, err error) {
	binDir = filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/asymd", "./cmd/asymbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binDir, time.Since(start), nil
}

// children tracks every process the benchmark started, so each exit path —
// normal return, verification failure, signal, panic — can stop them all.
var children struct {
	sync.Mutex
	procs map[*exec.Cmd]struct{}
}

func trackChild(cmd *exec.Cmd) {
	children.Lock()
	if children.procs == nil {
		children.procs = map[*exec.Cmd]struct{}{}
	}
	children.procs[cmd] = struct{}{}
	children.Unlock()
}

func untrackChild(cmd *exec.Cmd) {
	children.Lock()
	delete(children.procs, cmd)
	children.Unlock()
}

// killChildren stops every tracked process and waits for each to end.
func killChildren() {
	children.Lock()
	procs := make([]*exec.Cmd, 0, len(children.procs))
	for c := range children.procs {
		procs = append(procs, c)
	}
	children.procs = nil
	children.Unlock()
	for _, c := range procs {
		_ = c.Process.Kill()
		_ = c.Wait()
	}
}

// daemon is one running asymd child process.
type daemon struct {
	cmd *exec.Cmd
	log *os.File
	url string
}

var listenLine = regexp.MustCompile(`msg="asymd listening" addr=(\S+)`)

// startDaemon launches asymd with its default flags plus an ephemeral
// loopback address (and whatever extra the workload's topology needs),
// sends its output to logPath, and returns once the "asymd listening"
// line reveals the port.
func startDaemon(bin, logPath string, extra ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	trackChild(cmd)
	d := &daemon{cmd: cmd, log: logf}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(logPath); err == nil {
			if m := listenLine.FindSubmatch(b); m != nil {
				d.url = "http://" + string(m[1])
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("%s did not log its listen address within 10s (see %s)", bin, logPath)
}

// stop asks the daemon to drain (SIGTERM), kills it if it lingers, and
// waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	untrackChild(d.cmd)
	d.log.Close()
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. Linux fixes it at 100 on every supported architecture.
const clockTick = 100

// procCPU returns the user+system CPU time a live process has consumed.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain
	// spaces; fields are counted from the last ')'.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns a live process's resident-set high-water mark in
// bytes (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
