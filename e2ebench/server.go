package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/mstserve from the checkout at root into the
// benchmark's build directory and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "mstserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mstserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build mstserve: %w", err)
	}
	return bin, nil
}

// serverProc is one running mstserve process.
type serverProc struct {
	cmd  *exec.Cmd // cmd.Args is the exact command line, for the record
	base string    // http://127.0.0.1:port
	done chan struct{}
}

// startServer launches mstserve on a free loopback port and returns once it
// has printed its listen address. The request log (stderr) is discarded.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mstserve: %w", err)
	}
	s := &serverProc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mstserve listening on "); ok {
				addr <- a
			}
		}
		_ = cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		return nil, errors.New("mstserve exited before listening")
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, errors.New("mstserve did not report its address within 10s")
	}
}

// stop kills the process and waits until it has exited.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// procStatus reads the peak resident set (VmHWM, in MB) and the CPU time
// used so far by the process.
func (s *serverProc) procStatus() (peakMB float64, cpu time.Duration, err error) {
	pid := s.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			peakMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return peakMB, time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// hostCPU reads the machine's non-idle and steal clock ticks from
// /proc/stat. Steal is time the hypervisor ran something else while this
// guest wanted a CPU; it is printed beside the metrics because it moves
// every latency and throughput figure of a run.
func hostCPU() (busy, steal int64, err error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		// Fields: user nice system idle iowait irq softirq steal.
		if i != 4 && i != 5 {
			busy += v
		}
		if i == 8 {
			steal = v
		}
	}
	return busy, steal, nil
}

// cluster is the set of server processes one workload runs against.
type cluster []*serverProc

func (c cluster) stop() {
	for _, s := range c {
		s.stop()
	}
}

// usage sums peak RSS and CPU time over every process.
func (c cluster) usage() (peakMB float64, cpu time.Duration, err error) {
	for _, s := range c {
		p, t, e := s.procStatus()
		if e != nil {
			return 0, 0, e
		}
		peakMB += p
		cpu += t
	}
	return peakMB, cpu, nil
}

// client wraps the load generator's HTTP client.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		},
	}}
}

// httpError is a non-2xx reply.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, strings.TrimSpace(e.body))
}

// do sends one request and decodes a 2xx JSON reply into out (when
// non-nil). The returned duration runs from sending the request until the
// body has been read.
func (c *client) do(method, url string, body []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	if resp.StatusCode/100 != 2 {
		return elapsed, &httpError{status: resp.StatusCode, body: string(data)}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return elapsed, fmt.Errorf("decode %s %s reply: %w", method, url, err)
		}
	}
	return elapsed, nil
}

// is503 reports whether err is a 503 reply.
func is503(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.status == http.StatusServiceUnavailable
}

// waitHealthy polls /healthz until it answers 200, counting 503s.
func (c *client) waitHealthy(s *serverProc, unavailable *int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, err := c.do("GET", s.base+"/healthz", nil, nil)
		if err == nil {
			return nil
		}
		if is503(err) {
			*unavailable++
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s/healthz not ready within 30s", s.base)
}

// scrape reads every counter of one /metrics family, keyed by its kind
// label: family "llpmst_registry_total" gives "cache_hits" and so on.
func (c *client) scrape(s *serverProc, family string) (map[string]float64, error) {
	resp, err := c.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	prefix := family + `{kind="`
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		kind, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %s %s: %w", family, kind, err)
		}
		out[kind] = v
	}
	return out, sc.Err()
}
