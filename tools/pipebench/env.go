package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Env records the machine a result was measured on: absolute timings
// mean nothing without it.
type Env struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

func readEnv() Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM")) // "12345 kB"
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}

// rtSnap is a reading of the process's cumulative runtime costs.
type rtSnap struct {
	cpuS      float64
	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNS uint64
}

func readRT() rtSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return rtSnap{
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		allocB:    ms.TotalAlloc,
		mallocs:   ms.Mallocs,
		gcCycles:  ms.NumGC,
		gcPauseNS: ms.PauseTotalNs,
	}
}

// rtMetrics is the per-round cost between two readings plus the
// process's peak RSS so far.
func rtMetrics(a, b rtSnap, rounds int) map[string]float64 {
	n := float64(rounds)
	if n < 1 {
		n = 1
	}
	return map[string]float64{
		"rt.cpu_s":       (b.cpuS - a.cpuS) / n,
		"rt.alloc_mb":    float64(b.allocB-a.allocB) / (1 << 20) / n,
		"rt.mallocs":     float64(b.mallocs-a.mallocs) / n,
		"rt.gc_cycles":   float64(b.gcCycles-a.gcCycles) / n,
		"rt.gc_pause_ms": float64(b.gcPauseNS-a.gcPauseNS) / 1e6 / n,
		"rt.peak_rss_mb": peakRSSMB(),
	}
}
