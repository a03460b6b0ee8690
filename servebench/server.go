package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running cstserved process.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	flags    []string
	lines    chan string // stdout lines after the address banner
	stderr   *strings.Builder
	exited   chan struct{}
	waitErr  error
}

// serverFlags are the cstserved flags for a workload: the service defaults
// spelled out, so the run stamp records them.
func serverFlags(w workload) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0",
		"-pes", strconv.Itoa(w.pes), "-shards", strconv.Itoa(shards),
		"-batch-max", strconv.Itoa(batchMax), "-batch-wait", batchWait.String(),
		"-queue-depth", strconv.Itoa(queueDepth), "-wire-pipeline", strconv.Itoa(wirePipeline),
		"-trace-sample", "0",
	}
}

var (
	servingRE = regexp.MustCompile(`serving on (\S+) `)
	wireRE    = regexp.MustCompile(`wire protocol on (\S+)`)
	drainedRE = regexp.MustCompile(`drained: admitted=(\d+) responded=(\d+)`)
)

// startServer launches cstserved pinned to cpu (taskset, when given) with
// GOMAXPROCS=1 and waits for both listener banners.
func startServer(bin string, w workload, cpu string) (*server, error) {
	flags := serverFlags(w)
	var cmd *exec.Cmd
	if cpu != "" {
		cmd = exec.Command("taskset", append([]string{"-c", cpu, bin}, flags...)...)
	} else {
		cmd = exec.Command(bin, flags...)
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A plain pipe rather than StdoutPipe: Wait must not close the read end
	// before the drain report has been read.
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, flags: flags, lines: make(chan string, 16), stderr: &strings.Builder{},
		exited: make(chan struct{})}
	cmd.Stdout = pw
	cmd.Stderr = s.stderr
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("start cstserved: %w", err)
	}
	banner := make(chan error, 1)
	go s.readStdout(pr, banner)
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case err := <-banner:
		if err != nil {
			s.kill()
			return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(s.stderr.String()))
		}
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, errors.New("cstserved printed no listener banner within 10s")
	}
	return s, nil
}

// readStdout parses the listener banners, reports them on banner, then
// forwards the remaining lines (the drain report) to s.lines.
func (s *server) readStdout(r io.ReadCloser, banner chan<- error) {
	defer r.Close()
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		if !announced {
			if m := servingRE.FindStringSubmatch(line); m != nil {
				s.httpAddr = m[1]
			}
			if m := wireRE.FindStringSubmatch(line); m != nil {
				s.wireAddr = m[1]
			}
			if s.httpAddr != "" && s.wireAddr != "" {
				announced = true
				banner <- nil
			}
			continue
		}
		select {
		case s.lines <- line:
		default: // nobody reads chatter beyond the drain report
		}
	}
	if !announced {
		banner <- errors.New("cstserved exited before its banner")
	}
	close(s.lines)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// stop drains the server with SIGTERM and checks the drain: exit code 0 and
// a balanced admitted/responded ledger.
func (s *server) stop() (admitted, responded int64, err error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, 0, fmt.Errorf("signal cstserved: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return 0, 0, errors.New("cstserved did not exit within 30s of SIGTERM")
	}
	balanced := false
	for line := range s.lines {
		if m := drainedRE.FindStringSubmatch(line); m != nil {
			admitted, _ = strconv.ParseInt(m[1], 10, 64)
			responded, _ = strconv.ParseInt(m[2], 10, 64)
			balanced = admitted == responded
		}
	}
	if s.waitErr != nil {
		return admitted, responded, fmt.Errorf("cstserved exit: %v (stderr: %s)", s.waitErr, strings.TrimSpace(s.stderr.String()))
	}
	if !balanced {
		return admitted, responded, fmt.Errorf("drain unbalanced: admitted=%d responded=%d", admitted, responded)
	}
	return admitted, responded, nil
}

// cpuNanos returns the CPU time the process has used so far: the sum of its
// threads' schedstat run times (nanosecond resolution), or utime+stime from
// /proc/<pid>/stat in clock ticks where schedstat is missing.
func cpuNanos(pid int) (int64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	ok := false
	for _, f := range tasks {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // thread exited between the glob and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			continue
		}
		total += v
		ok = true
	}
	if ok {
		return total, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	const tick = int64(time.Second / 100) // USER_HZ
	return (utime + stime) * tick, nil
}

// procStatus returns one field of /proc/<pid>/status ("" when absent).
func procStatus(pid int, field string) string {
	f := "/proc/self/status"
	if pid > 0 {
		f = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			return strings.TrimSpace(strings.TrimPrefix(line, field+":"))
		}
	}
	return ""
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	v := strings.TrimSuffix(procStatus(pid, "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("read VmHWM of %d: %q", pid, v)
	}
	return kb / 1024, nil
}

// allowedCPUs parses a Cpus_allowed_list value such as "0-1" or "0,2-3".
func allowedCPUs(list string) []int {
	var cpus []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if found {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus
}
