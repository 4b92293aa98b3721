package mergepath_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end smoke tests: every command-line tool must run to completion
// with tiny inputs and print its table. These compile and execute the real
// binaries via `go run`, so they take a few seconds; skipped under -short.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("e2e tool runs are skipped in short mode")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestMergebenchE2E(t *testing.T) {
	out := runTool(t, "./cmd/mergebench", "-experiment", "balance", "-sizes", "4K", "-reps", "1")
	if !strings.Contains(out, "merge path") || !strings.Contains(out, "shiloach-vishkin") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestMergebenchE2EBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e tool runs are skipped in short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/mergebench", "-experiment", "nope", "-sizes", "1K", "-reps", "1")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("unknown experiment should fail:\n%s", out)
	}
	cmd = exec.Command("go", "run", "./cmd/mergebench", "-sizes", "bogus")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bad sizes should fail:\n%s", out)
	}
}

func TestSortbenchE2E(t *testing.T) {
	out := runTool(t, "./cmd/sortbench", "-experiment", "external", "-sizes", "16K")
	if !strings.Contains(out, "external merge sort") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestCachesimE2E(t *testing.T) {
	out := runTool(t, "./cmd/cachesim", "-experiment", "private", "-elements", "4096")
	if !strings.Contains(out, "coherence traffic") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestCrewcheckE2E(t *testing.T) {
	out := runTool(t, "./cmd/crewcheck", "-elements", "2048")
	if !strings.Contains(out, "CREW conformance: PASS") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestPathvizE2E(t *testing.T) {
	out := runTool(t, "./cmd/pathviz", "-a", "1,3,5", "-b", "2,4", "-p", "2")
	if !strings.Contains(out, "Merge matrix") || !strings.Contains(out, "merged: [1 2 3 4 5]") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestMergeloadE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e tool runs are skipped in short mode")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_server.json")
	out := runTool(t, "./cmd/mergeload",
		"-duration", "400ms", "-warmup", "100ms", "-conc", "4", "-size", "64",
		"-json", jsonPath)
	if !strings.Contains(out, "self-serving") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("mergeload -json wrote nothing: %v", err)
	}
	// Latencies ride the wire in float milliseconds (`_ms`, the repo's
	// JSON unit policy — docs/METRICS.md); the document also carries the
	// per-stage span histograms and the round load-imbalance summary.
	for _, key := range []string{`"req_per_s"`, `"p99_ms"`, `"server_metrics"`, `"stages"`, `"imbalance"`} {
		if !strings.Contains(string(buf), key) {
			t.Errorf("BENCH_server.json missing %s", key)
		}
	}
	if strings.Contains(string(buf), "_ns\"") {
		t.Error("BENCH_server.json still carries raw nanosecond fields; wire unit is milliseconds")
	}
}

// TestReadmeFlagTables: README's operator-runbook flag tables list
// exactly the flags each daemon-side binary registers, so a deleted or
// renamed flag cannot leave a stale row behind (or a new one go
// undocumented). The registered set comes from the binary's own -h.
func TestReadmeFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"mergepathd", "mergeload"} {
		t.Run(tool, func(t *testing.T) {
			registered := map[string]bool{}
			for _, line := range strings.Split(runTool(t, "./cmd/"+tool, "-h"), "\n") {
				if f := strings.Fields(line); strings.HasPrefix(line, "  -") && len(f) > 0 {
					registered[f[0]] = true
				}
			}
			documented := readmeFlagTable(t, string(readme), "**`"+tool+"` flags**")
			for f := range registered {
				if !documented[f] {
					t.Errorf("%s registers %s, but README's flag table has no row for it", tool, f)
				}
			}
			for f := range documented {
				if !registered[f] {
					t.Errorf("README's %s flag table lists %s, which the binary does not register", tool, f)
				}
			}
		})
	}
}

// readmeFlagTable returns the flags named in the first column of the
// Markdown table that follows heading: every backquoted `-flag` in it,
// since one row may name several related flags.
func readmeFlagTable(t *testing.T, readme, heading string) map[string]bool {
	t.Helper()
	i := strings.Index(readme, heading)
	if i < 0 {
		t.Fatalf("README has no %s section", heading)
	}
	flags := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(readme[i+len(heading):], "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first := strings.Split(line, "|")[1]
		for _, tok := range strings.Split(first, "`") {
			if strings.HasPrefix(tok, "-") && !strings.HasPrefix(tok, "--") {
				flags[tok] = true
			}
		}
	}
	if len(flags) == 0 {
		t.Fatalf("README's %s table lists no flags", heading)
	}
	return flags
}
