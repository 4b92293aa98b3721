// Command perfbench is the benchmark of one mergepathd node. It launches
// the daemon binary built from this checkout, drives it over loopback
// HTTP from this one process, checks every response byte against a
// reference, and prints the end-to-end metrics named in BENCHMARK.json.
// With -trace 1 it instead replays a fixed count of the same generated
// inputs, records spans around each call into a layer, and prints the
// per-layer metrics.
//
// Usage (from the repository root; perfbench/run.py builds both binaries
// and then runs this):
//
//	perfbench -workload rpc-small-json -seed 1 -seconds 30 -trace 0
//
// Workloads:
//
//   - rpc-small-json: open loop of small mixed JSON requests, where
//     per-request costs (JSON, admission, the coalescing window) dominate.
//   - rpc-large-binary: open loop of 256K-512K element merge, sort and
//     mergek requests as binary frames, where the kernels dominate.
//   - jobs-extsort: closed loop of out-of-core sort job cycles (upload,
//     sort with M = 64K records, poll, stream, delete the dataset).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it describe the
// run; a full record with the machine shape is written under -work.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects what it reports.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // mergepathd binary
	work     string // spill dirs, logs, traces and records go here
	conns    int

	res     result
	details []string       // human-readable lines printed before the result
	extra   map[string]any // detail kept in the record file
	daemon  []string       // flags of the measured daemon
	fsync   string         // fsync policy the daemon reports
	workers int            // worker pool size the daemon reports
	tracer  *tracer
}

func (r *run) set(name, unit string, v float64) { r.res.Metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) note(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect: a wrong byte, a broken invariant or a
// stage accounting that does not add up.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	r.note("CHECK FAILED: "+format, args...)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	workload := flag.String("workload", "", "workload: rpc-small-json, rpc-large-binary or jobs-extsort")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same request bytes")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	bin := flag.String("daemon", ".bench_build/mergepathd", "mergepathd binary")
	root := flag.String("root", ".", "repository root, for the source digest and git commit")
	work := flag.String("work", ".bench_build", "directory for spill dirs, daemon logs, traces and records")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *traceFlag, *bin, *root, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds, traceFlag int, bin, root, work string) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	// The generator gets at most two cores, and never more connections
	// than cores: it shares the machine with the daemon it measures.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	r := &run{workload: workload, seed: seed, seconds: float64(seconds), trace: traceFlag == 1,
		bin: bin, work: work, conns: procs, extra: map[string]any{"exact_counts": exact[workload]},
		res: result{Correct: true, Metrics: map[string]metric{}}}
	if r.trace {
		r.tracer = newTracer()
	}
	if err := workloads[workload].run(r); err != nil {
		return err
	}
	if err := r.checkReported(); err != nil {
		return err
	}

	shape := machineShape(root, r)
	rec := map[string]any{"workload": workload, "seed": seed, "seconds": seconds, "trace": traceFlag,
		"shape": shape, "result": r.res, "details": r.details, "extra": r.extra}
	recPath := filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, traceFlag))
	if err := writeJSON(recPath, rec); err != nil {
		return err
	}
	if r.tracer != nil {
		tpath := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := r.tracer.write(tpath); err != nil {
			return err
		}
		r.note("spans: %d written to %s", r.tracer.len(), tpath)
	}
	sb, _ := json.Marshal(shape)
	fmt.Printf("shape: %s\n", sb)
	for _, d := range r.details {
		fmt.Println(d)
	}
	fmt.Printf("record: %s\n", recPath)
	out, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
	return nil
}

// checkReported makes sure the run reported exactly the metrics its
// mode promises, by name and unit, and no NaN or infinity.
func (r *run) checkReported() error {
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	if len(r.res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s: missing or wrong unit %q", m.Name, got.Unit)
		}
		if got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300 {
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	if r.res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// daemonFlags renders the measured daemon's flags with the per-run
// address and spill path replaced, so two runs compare equal.
func daemonFlags(args []string) string {
	out := make([]string, len(args))
	copy(out, args)
	for i := 0; i+1 < len(out); i++ {
		switch out[i] {
		case "-addr":
			out[i+1] = "127.0.0.1:PORT"
		case "-spill-dir":
			out[i+1] = "FRESH_DIR"
		}
	}
	return strings.Join(out, " ")
}
