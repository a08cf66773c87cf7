package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the Go heap's cumulative allocated bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs is the Go heap's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// releaseMemory returns a torn-down set-up's heap to the OS, so repeated
// set-ups do not stack up in the peak resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(fields[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostInfo fingerprints the machine a result was measured on.
type hostInfo struct {
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	SIMD       []string `json:"simd"`
	GoVersion  string   `json:"go_version"`
}

// simdFlags are the /proc/cpuinfo flags the kernels dispatch on (or could).
var simdFlags = []string{"sse4_2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512bw", "avx512vnni", "avx_vnni"}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       []string{},
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "model name" && h.CPUModel == "":
			h.CPUModel = val
		case key == "flags" && len(h.SIMD) == 0:
			have := map[string]bool{}
			for _, fl := range strings.Fields(val) {
				have[fl] = true
			}
			for _, fl := range simdFlags {
				if have[fl] {
					h.SIMD = append(h.SIMD, fl)
				}
			}
		}
	}
	return h
}
