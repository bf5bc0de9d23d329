package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the block printed with every report: enough to tell
// whether two runs are comparable.
func environment(o runOpts) map[string]string {
	cwd, _ := os.Getwd()
	fs := fsType(cwd)
	return map[string]string{
		"cpu":          cpuModel(),
		"nproc":        fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":   fmt.Sprint(runtime.GOMAXPROCS(0)),
		"max_clients":  fmt.Sprint(o.width),
		"go":           runtime.Version(),
		"commit":       gitCommit(cwd),
		"seed":         fmt.Sprint(o.seed),
		"window_s":     fmt.Sprint(o.seconds),
		"warm_up":      "fixed op count per workload, inside setup_s",
		"setups":       fmt.Sprint(setupRepeats),
		"load":         "closed loop, one process",
		"flush_policy": flushPolicy,
		"data_dir":     filepath.Join(cwd, tmpRoot),
		"data_dir_fs":  fs,
		"tmpfs":        fmt.Sprint(fs == "tmpfs" || fs == "ramfs"),
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

// fsType names the filesystem holding dir: the type of the mount point
// that is the longest prefix of dir in /proc/mounts.
func fsType(dir string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, kind := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, kind = mp, fields[2]
		}
	}
	return kind
}

// gitCommit reads HEAD without running git; a checkout that is not a
// repository reports "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, n, ok := strings.Cut(line, " "); ok && n == name {
				return hash
			}
		}
	}
	return "unknown"
}
