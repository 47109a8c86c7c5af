package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// serverProc is one running comaserve process.
type serverProc struct {
	cmd     *exec.Cmd
	started time.Time
	base    string // http://host:port
	client  *http.Client
	done    chan struct{} // closed once stderr reached EOF
	mu      sync.Mutex
	log     bytes.Buffer // stderr, for diagnostics
}

// live tracks every started process so that an aborted run still stops
// them all (see stopAll).
var (
	liveMu sync.Mutex
	live   = map[*serverProc]bool{}
)

// newClient returns an HTTP client holding at most workers connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

// startServer starts comaserve on a loopback port and returns once it
// listens. args are comaserve flags (and preload files).
func startServer(bin string, args []string) (*serverProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	p := &serverProc{cmd: exec.Command(bin, args...), client: newClient(), done: make(chan struct{})}
	// The server dies with the benchmark even when the benchmark is
	// killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start comaserve: %w", err)
	}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			// "comaserve: serving N schemas in S shards on 127.0.0.1:PORT"
			if i := strings.LastIndex(line, " on "); !sent && strings.Contains(line, "serving ") && i >= 0 {
				addrc <- line[i+4:]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
		return p, nil
	case <-p.done:
	case <-time.After(120 * time.Second):
	}
	p.kill()
	return nil, fmt.Errorf("comaserve did not start listening:\n%s", p.stderr())
}

func (p *serverProc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop sends SIGTERM (graceful drain and checkpoint) and waits for the
// process to exit, killing it after a timeout.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("comaserve did not stop within 60s")
	}
	err := p.cmd.Wait()
	p.client.CloseIdleConnections()
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
	if err != nil {
		return fmt.Errorf("comaserve exit: %w\n%s", err, p.stderr())
	}
	return nil
}

func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	_ = p.cmd.Wait()
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

// stopAll kills every process still running.
func stopAll() {
	liveMu.Lock()
	ps := make([]*serverProc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (p *serverProc) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
}

// do sends one request and decodes a 2xx JSON answer into out (if
// non-nil). Any other status is an error.
func (p *serverProc) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func (p *serverProc) match(body []byte) (*server.MatchResponse, error) {
	var resp server.MatchResponse
	if err := p.do("POST", "/match", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (p *serverProc) readyz() (*server.Readiness, error) {
	var r server.Readiness
	if err := p.do("GET", "/readyz", nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// scrape is one parsed /metrics exposition: series (name plus label
// string) to value.
type scrape map[string]float64

func (p *serverProc) scrape() (scrape, error) {
	req, err := http.NewRequest("GET", p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the metric name, whatever its labels.
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is the growth of a metric between two scrapes.
func delta(before, after scrape, name string) float64 {
	return after.sum(name) - before.sum(name)
}
