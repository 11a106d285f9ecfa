package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Child processes run the simulator. Each runs one workload batch (timed
// or profiled) or the layer drivers, so peak RSS and the runtime counters
// belong to exactly one workload run, and a profiled run never shares a
// process with a timed one. A child receives only generated parameters:
// the scenario seed and worker bound, never the benchmark seed.

// span is one unit of work timed from the benchmark's side of a call.
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// tracer keeps spans in memory until the child reports. A nil tracer
// records nothing, so untraced runs pay one nil check per unit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name:    name,
		StartMS: float64(start.Sub(t.t0).Nanoseconds()) / 1e6,
		DurMS:   float64(d.Nanoseconds()) / 1e6,
	})
}

// begin starts a span and returns the function that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.add(name, start, time.Since(start)) }
}

// childResult is what a child prints on standard output.
type childResult struct {
	PID        int     `json:"pid"`
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	GoMaxProcs int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`
	SetupS     float64 `json:"setup_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	AllocMB    float64 `json:"alloc_mb"`
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseMS  float64 `json:"gc_pause_ms"`
	Batch      batch   `json:"batch"`
	Spans      []span  `json:"spans,omitempty"`
	// SetupBuilds is how many reference-network builds setup_s is the
	// median of (0 when the batch measured its own set-up).
	SetupBuilds int `json:"setup_builds,omitempty"`
	// StealFrac is the share of the machine's CPU time the host stole
	// while the batch ran; RawWallS is the batch's wall time before the
	// stolen share is taken out of WallS.
	StealFrac float64        `json:"steal_frac"`
	RawWallS  float64        `json:"raw_wall_s"`
	Drivers   []driverResult `json:"drivers,omitempty"`
}

const mib = 1 << 20

// Set-up is the median of at least setupMinBuilds builds, continued until
// setupMinTime has passed.
const (
	setupMinBuilds = 9
	setupMinTime   = 300 * time.Millisecond
	setupMaxBuilds = 2000
)

func runChild(mode, name string, seed int64, workers int, profilePath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res := childResult{PID: os.Getpid(), Mode: mode, Workers: workers, GoMaxProcs: runtime.GOMAXPROCS(0)}
	switch mode {
	case "drivers":
		for _, d := range drivers {
			res.Drivers = append(res.Drivers, runDriver(d, w.size))
		}
	case "timed", "profiled":
		var tr *tracer
		var prof *os.File
		if mode == "profiled" {
			if prof, err = os.Create(profilePath); err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(prof); err != nil {
				prof.Close()
				return err
			}
			tr = &tracer{t0: time.Now()}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, steal0 := cpuSeconds(), stealSeconds()
		start := time.Now()
		res.Batch = w.run(seed, workers, tr)
		elapsed := time.Since(start).Seconds()
		res.StealFrac = (stealSeconds() - steal0) / elapsed
		res.RawWallS = elapsed - forced.wallS
		res.WallS = res.RawWallS * (1 - res.StealFrac)
		res.CPUS = cpuSeconds() - cpu0 - forced.cpuS
		runtime.ReadMemStats(&m1)
		m1.NumGC -= forced.cycles
		m1.PauseTotalNs -= forced.pauseNs
		if prof != nil {
			pprof.StopCPUProfile()
			if err := prof.Close(); err != nil {
				return err
			}
			res.Spans = tr.spans
		}
		if res.PeakRSSMB, err = peakRSSMB(); err != nil {
			return err
		}
		res.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
		res.Mallocs = m1.Mallocs - m0.Mallocs
		res.GCCycles = m1.NumGC - m0.NumGC
		res.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		res.SetupS = res.Batch.SetupS * (1 - res.StealFrac)
		if mode == "timed" && w.setup != nil {
			res.SetupS, res.SetupBuilds = measureSetup(w.setup, seed)
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measureSetup times the workload's reference-network build repeatedly,
// after the batch so its garbage cannot raise the batch's peak RSS, and
// returns the median build time and the number of builds. Each build
// starts from a collected heap and is timed in process CPU seconds, which
// count the collector's work during the build but not time the host took
// the CPU away.
func measureSetup(build func(seed int64), seed int64) (float64, int) {
	var times []float64
	start := time.Now()
	for len(times) < setupMaxBuilds && (len(times) < setupMinBuilds || time.Since(start) < setupMinTime) {
		runtime.GC()
		t := cpuSeconds()
		build(seed)
		times = append(times, cpuSeconds()-t)
	}
	sort.Float64s(times)
	return times[len(times)/2], len(times)
}

// cpuSeconds returns this process's CPU time (user+system, all threads)
// from CLOCK_PROCESS_CPUTIME_ID, to the nanosecond.
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprint("clock_gettime: ", e))
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / mib, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stealSeconds reads the time the hypervisor ran something else while
// this machine's CPUs were ready, per CPU (/proc/stat), or 0 where the
// kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] == "cpu" {
			total, _ = strconv.ParseFloat(f[8], 64)
		} else {
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return total / userHZ / float64(cpus)
}

// userHZ is the unit of /proc/stat's times on Linux.
const userHZ = 100
