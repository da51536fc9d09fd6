package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet owns every server process the benchmark starts. Children run in
// their own process group with a parent-death signal, so they die with the
// benchmark even when it is killed outright; killAll covers normal exit,
// errors and SIGINT.
type procSet struct {
	killMu sync.Mutex // held through killAll, so a second caller waits for the first
	mu     sync.Mutex
	procs  []*proc
	closed bool // set by killAll: no process starts after it
}

// proc is one running nevermindd or nevermindgw.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *logSink
	done chan struct{} // closed once Wait returns
	err  error         // Wait's result, valid after done
}

// logSink keeps a process's combined output and announces the first
// "listening on HOST:PORT" line it prints.
type logSink struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	line []byte
	sent bool
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.sent {
		return len(p), nil
	}
	l.line = append(l.line, p...)
	for {
		i := bytes.IndexByte(l.line, '\n')
		if i < 0 {
			break
		}
		line := string(l.line[:i])
		l.line = l.line[i+1:]
		if _, rest, ok := strings.Cut(line, ": listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			l.addr <- addr
			l.sent = true
			l.line = nil
			break
		}
	}
	return len(p), nil
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// start launches bin with args and waits until it prints its listen
// address, returning the base URL. A process that exits or stays silent for
// timeout is killed and reported with the tail of its log.
func (ps *procSet) start(name, bin string, timeout time.Duration, args ...string) (*proc, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	sink := &logSink{addr: make(chan string, 1)}
	cmd.Stdout = sink
	cmd.Stderr = sink
	p := &proc{name: name, cmd: cmd, out: sink, done: make(chan struct{})}
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil, "", fmt.Errorf("start %s: benchmark is shutting down", name)
	}
	if err := cmd.Start(); err != nil {
		ps.mu.Unlock()
		return nil, "", fmt.Errorf("start %s: %w", name, err)
	}
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case addr := <-sink.addr:
		return p, "http://" + addr, nil
	case <-p.done:
		return nil, "", fmt.Errorf("%s exited before listening (%v):\n%s", name, p.err, tail(sink.String()))
	case <-time.After(timeout):
		p.kill()
		return nil, "", fmt.Errorf("%s did not listen within %v:\n%s", name, timeout, tail(sink.String()))
	}
}

func tail(s string) string {
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}

// pid returns the process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill SIGKILLs the process group and waits for the process to end.
func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // already-gone groups are fine
	<-p.done
}

// killAll kills every process still running and waits for each.
func (ps *procSet) killAll() {
	ps.killMu.Lock()
	defer ps.killMu.Unlock()
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.closed = true
	ps.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// forget drops stopped processes from the set.
func (ps *procSet) forget(stopped ...*proc) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	keep := ps.procs[:0]
	for _, p := range ps.procs {
		gone := false
		for _, s := range stopped {
			gone = gone || p == s
		}
		if !gone {
			keep = append(keep, p)
		}
	}
	ps.procs = keep
}

// procStats is what /proc reports about one process.
type procStats struct {
	cpu   time.Duration // user + system
	hwmKB int64         // peak resident set (VmHWM)
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTick = 10 * time.Millisecond

func readProcStats(pid int) (procStats, error) {
	var st procStats
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, i.e. the 12th and 13th after ")".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return st, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return st, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, errors.New("bad cpu fields in /proc stat")
	}
	st.cpu = time.Duration(ut+stt) * clockTick
	sf, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return st, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			v = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
			st.hwmKB, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return st, sc.Err()
}

// sumStats reads and sums /proc stats over procs.
func sumStats(procs ...*proc) (procStats, error) {
	var tot procStats
	for _, p := range procs {
		s, err := readProcStats(p.pid())
		if err != nil {
			return tot, fmt.Errorf("%s: %w", p.name, err)
		}
		tot.cpu += s.cpu
		tot.hwmKB += s.hwmKB
	}
	return tot, nil
}

// dirBytes returns the size of every regular file in dir whose name ends in
// suffix, keyed by name.
func dirBytes(dir, suffix string) (map[string]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // truncated away between listing and stat
			}
			return nil, err
		}
		out[e.Name()] = info.Size()
	}
	return out, nil
}

// growth is the bytes appended between two dirBytes listings: files that
// vanished (truncated after a checkpoint) were complete before, so they add
// nothing; new files count whole.
func growth(before, after map[string]int64) int64 {
	var g int64
	for name, sz := range after {
		g += sz - before[name]
	}
	return g
}

// hostCPU is the machine-wide CPU time /proc/stat reports, in clock ticks.
// Steal is time the hypervisor gave this machine's CPUs to other guests: a
// run measured under heavy steal is slower for reasons outside the program.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

func (h hostCPU) sub(o hostCPU) hostCPU { return hostCPU{h.total - o.total, h.steal - o.steal} }

func (h *hostCPU) add(o hostCPU) { h.total += o.total; h.steal += o.steal }

func (h hostCPU) String() string {
	return fmt.Sprintf("CPU steal %.1f%% of machine CPU time over the measured windows", 100*ratio(float64(h.steal), float64(h.total)))
}
