package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostShape is what must match before two results may be compared: a run
// on 2 cores says nothing about a run on 8.
type hostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// budget is W, the suite worker budget, every campaign's worker count and
// the serve-loop client count.
func budget() int { return min(runtime.NumCPU(), 4) }

func currentShape() hostShape {
	return hostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		W:          budget(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
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

// noise is a snapshot of what else the host was doing: the load average
// and the cumulative CPU ticks, of which steal is time the hypervisor gave
// to someone else. Zero values mean /proc was unreadable.
type noise struct {
	LoadAvg    [3]float64 `json:"loadavg"`
	StealTicks uint64     `json:"steal_ticks"`
	TotalTicks uint64     `json:"total_ticks"`
}

func readNoise() noise {
	var n noise
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		for i, f := range strings.Fields(string(data)) {
			if i >= 3 {
				break
			}
			n.LoadAvg[i], _ = strconv.ParseFloat(f, 64)
		}
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		// cpu user nice system idle iowait irq softirq steal ...
		fields := strings.Fields(line)
		for i := 1; i < len(fields) && i <= 8; i++ {
			v, _ := strconv.ParseUint(fields[i], 10, 64)
			n.TotalTicks += v
			if i == 8 {
				n.StealTicks = v
			}
		}
	}
	return n
}

// noisy flags a workload whose host was busy: more than 2% of CPU time
// stolen, or a one-minute load above the core count at either end.
func noisy(start, end noise, cpus int) bool {
	if dt := end.TotalTicks - start.TotalTicks; dt > 0 && float64(end.StealTicks-start.StealTicks) > 0.02*float64(dt) {
		return true
	}
	return start.LoadAvg[0] > float64(cpus) || end.LoadAvg[0] > float64(cpus)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
