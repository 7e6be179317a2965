package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// procField returns the value part of the first "<key>:" line of a /proc
// text file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			if rest, ok = strings.CutPrefix(strings.TrimSpace(rest), ":"); ok {
				return strings.TrimSpace(rest), nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// loadAvg1 is the host's 1-minute load average.
func loadAvg1() (float64, error) {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0, fmt.Errorf("/proc/loadavg is empty")
	}
	return strconv.ParseFloat(fields[0], 64)
}

// hostInfo is the fingerprint a run is recorded with.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func fingerprint(sha string) hostInfo {
	cpu, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		cpu = "unknown"
	}
	load, _ := loadAvg1() // 0 when unreadable; the run is then not marked noisy
	return hostInfo{
		CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: sha, LoadAvg1: load,
	}
}

// gitSHA names the tree being measured; a checkout that is not a git
// repository (the driver's) is "nogit".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}
