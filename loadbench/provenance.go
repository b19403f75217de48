package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// provenance identifies what produced a result: the code, the host and
// the load plan.
func provenance(cfg runConfig) map[string]any {
	p := map[string]any{
		"commit":        "unknown",
		"dirty":         "unknown",
		"source_sha256": sourceHash("."),
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds,
		"traced":        cfg.Trace,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	low, high, ladder := planSteps(cfg)
	var rungs []float64
	for _, s := range ladder {
		rungs = append(rungs, s.rate)
	}
	p["rates"] = map[string]any{
		"knee_ops":      cfg.Rate.KneeOps,
		"low_ops":       low.rate,
		"high_ops":      high.rate,
		"ladder_ops":    rungs,
		"p99_limit_ms":  cfg.Rate.P99LimitMs,
		"inflight_cap":  cfg.Rates.InflightCap,
		"late_bound_ms": cfg.lateBoundMs(),
		"reason":        cfg.Rate.Reason,
	}
	return p
}

// sourceHash digests every Go source and module file under root, in path
// order, skipping hidden and build directories: it identifies the code
// where no git metadata is available.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "rates.json" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor name from /proc/cpuinfo.
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

// cpuTicks reads the machine's total and stolen CPU ticks from the first
// line of /proc/stat. Steal is time the hypervisor gave this machine's
// virtual CPUs to someone else; over a run it explains a slow result.
// Both are 0 where /proc/stat cannot be read.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
