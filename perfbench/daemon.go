package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running mergepathd process on a loopback port with a
// fresh spill directory of its own.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	spill string
	args  []string
	done  chan error // receives the process's exit once
	once  sync.Once
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; a collision makes startDaemon
// fail with a timeout rather than measure the wrong process.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with -addr and a fresh -spill-dir under work
// plus extra flags, and returns once /healthz answers 200. The returned
// duration runs from process launch to that first 200, so it includes
// journal open and replay.
func startDaemon(bin, work string, extra []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	spill, err := os.MkdirTemp(work, "spill-")
	if err != nil {
		return nil, 0, fmt.Errorf("spill dir: %w", err)
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-spill-dir", spill}, extra...)
	logf, err := os.OpenFile(filepath.Join(work, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("daemon log: %w", err)
	}
	defer logf.Close()
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), spill: spill, args: args, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the daemon, the kernel
	// kills the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := t0.Add(20 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, 0, fmt.Errorf("daemon exited before /healthz answered: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("daemon did not answer /healthz within 20s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns,
// waits for the process to end and removes its spill directory. Calls
// after the first do nothing.
func (d *daemon) stop() {
	d.once.Do(func() {
		// The signal fails harmlessly when the process already exited;
		// its exit status is then waiting in done.
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		_ = os.RemoveAll(d.spill)
	})
}

// peakRSSMiB reads the daemon's VmHWM (peak resident set) from procfs.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// metricsDoc is the part of the daemon's /metrics document the
// benchmark reads.
type metricsDoc struct {
	Queue struct {
		Shed uint64 `json:"shed_total"`
	} `json:"queue"`
	Pool struct {
		Workers      int     `json:"workers"`
		BatchRounds  uint64  `json:"batch_rounds"`
		BatchPairs   uint64  `json:"batch_pairs"`
		RunRounds    uint64  `json:"run_rounds"`
		ImbalanceMax float64 `json:"imbalance_max"`
	} `json:"pool"`
	Overload struct {
		Shed      uint64 `json:"shed_total"`
		Degraded  uint64 `json:"transitions_degraded_total"`
		Shedding  uint64 `json:"transitions_shedding_total"`
		Recovered uint64 `json:"transitions_healthy_total"`
	} `json:"overload"`
	Jobs *struct {
		Durability struct {
			JournalAppends uint64 `json:"journal_appends_total"`
			Fsyncs         uint64 `json:"fsyncs_total"`
			FsyncPolicy    string `json:"fsync_policy"`
		} `json:"durability"`
	} `json:"jobs"`
}

func (d *daemon) metrics() (metricsDoc, error) {
	var m metricsDoc
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// setupClock collects the launch-to-200 times of one daemon
// configuration. A run launches the daemon a few times before it starts
// measuring and once more between its measured phases, so that setup_s
// is a median over launches spread across the run, not over one moment
// of the host's load.
type setupClock struct {
	bin, work string
	extra     []string
	times     []float64
}

func (s *setupClock) launch() (*daemon, error) {
	d, took, err := startDaemon(s.bin, s.work, s.extra)
	if err != nil {
		return nil, err
	}
	s.times = append(s.times, took.Seconds())
	return d, nil
}

// start launches the daemon n times in a row, stopping all but the
// last, and returns the last.
func (s *setupClock) start(n int) (*daemon, error) {
	for range n - 1 {
		if err := s.probe(); err != nil {
			return nil, err
		}
	}
	return s.launch()
}

// probe launches one more daemon beside the measured one, which is idle
// while it runs, and stops it.
func (s *setupClock) probe() error {
	d, err := s.launch()
	if err != nil {
		return err
	}
	d.stop()
	return nil
}

func (s *setupClock) median() float64 { return median(s.times) }
