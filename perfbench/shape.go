package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// machineShape records what a result depends on besides the code: two
// results are comparable only when every field but git_commit and
// source_sha256 matches (perfbench/compare.py enforces this).
func machineShape(root string, r *run) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
		"l2":             cacheSize(2),
		"l3":             cacheSize(3),
		"connections":    r.conns,
		"daemon_flags":   daemonFlags(r.daemon),
		"daemon_workers": r.workers,
		"fsync_policy":   r.fsync,
		"git_commit":     gitCommit(root),
		"source_sha256":  sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reports the size of cpu0's unified or data cache at level,
// as sysfs prints it (e.g. "4096K").
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != string(rune('0'+level)) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// that is not a git repository reports "none" (source_sha256 still
// identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// hidden directories (build output lives in one).
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSnap is the machine-wide CPU time from /proc/stat, in ticks.
type cpuSnap struct{ steal, total uint64 }

func readCPU() cpuSnap {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSnap{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var s cpuSnap
	// user nice system idle iowait irq softirq steal; the guest
	// fields after them are already counted in user.
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealShare is the share of CPU time the hypervisor gave to other
// guests between two snapshots: time this machine's CPUs wanted to run
// and could not. It is how a busy neighbour shows from inside the VM.
func stealShare(a, b cpuSnap) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
