package main

import (
	"bufio"
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

// aiqld is one running server process.
type aiqld struct {
	name   string
	cmd    *exec.Cmd
	url    string
	ready  chan struct{}
	exited chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var (
	listeningLine = regexp.MustCompile(`listening on (\S+) \(`)
	readyLine     = regexp.MustCompile(`^aiqld \(\w+\) ready$`)
)

// startAiqld launches bin with args plus a loopback listener on a free
// port, and returns once the process has announced its address.
func startAiqld(bin, name string, args ...string) (*aiqld, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &aiqld{name: name, cmd: cmd, ready: make(chan struct{}), exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		readyClosed := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := listeningLine.FindStringSubmatch(line); m != nil {
				addr <- m[1]
			}
			if !readyClosed && readyLine.MatchString(line) {
				readyClosed = true
				close(p.ready)
			}
		}
		_ = cmd.Wait()
		close(p.exited)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.lastLines())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 60s", name)
	}
}

func (p *aiqld) lastLines() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// waitReady blocks until the server has finished booting.
func (p *aiqld) waitReady() error {
	select {
	case <-p.ready:
		return nil
	case <-p.exited:
		return fmt.Errorf("%s exited during boot: %s", p.name, p.lastLines())
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s not ready within 60s", p.name)
	}
}

// stop terminates the process gracefully (SIGTERM flushes a durable
// store's WAL) and waits until it has exited.
func (p *aiqld) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// statusMB reads one memory field of /proc/<pid>/status, such as VmRSS
// (resident set) or VmHWM (its peak).
func (p *aiqld) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s for %s", field, p.name)
}

// group is a set of processes, such as the traced run's cluster workers;
// stop ends them all.
type group []*aiqld

func (g group) stop() {
	var wg sync.WaitGroup
	for _, p := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// sampleRSS samples the process's resident set once a second from half a
// second after from until stop.
func sampleRSS(p *aiqld, from, stop time.Time) []float64 {
	var out []float64
	for t := from.Add(500 * time.Millisecond); t.Before(stop); t = t.Add(time.Second) {
		time.Sleep(time.Until(t))
		if mb, err := p.statusMB("VmRSS"); err == nil {
			out = append(out, mb)
		}
	}
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
