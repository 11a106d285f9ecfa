package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports, each the median over the
// run's repetitions of the batch.
var endToEnd = []metricDef{
	{"wall_s", "s"},        // host seconds of the batch, less the share the host stole
	{"setup_s", "s"},       // seconds building the network before the first event
	{"cpu_s", "s"},         // user+system seconds of the batch
	{"peak_rss_mb", "MiB"}, // VmHWM of the child that ran the batch
	{"alloc_mb", "MiB"},    // MemStats.TotalAlloc delta over the batch
}

// counters are the layer counters read through public result accessors.
// A workload whose results do not expose one reports 0 for it and lists
// it as unexposed in its trace document.
var counters = []metricDef{
	{"sim.events", "count"},
	{"shard.rounds", "count"},
	{"shard.barrier_rounds", "count"},
	{"shard.elided_frac", "ratio"},
	{"shard.event_imbalance", "ratio"},
	{"shard.xflushes", "count"},
	{"shard.xflush_elided_frac", "ratio"},
	{"netsim.wired_sent", "count"},
	{"netsim.wired_drops", "count"},
	{"wireless.air_sent", "count"},
	{"wireless.air_drops", "count"},
	{"core.handoffs", "count"},
	{"core.refusal_frac", "ratio"},
	{"core.sessions_left", "count"},
	{"mip.dup_packets", "count"},
	{"tcp.timeouts", "count"},
}

// perLayer lists every metric a traced run reports, in BENCHMARK.json
// order.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), counters...)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "%"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_cpu_share", "%"},
		metricDef{"runtime.malloc_cpu_share", "%"},
		metricDef{"runtime.mallocs", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
	)
	for _, d := range drivers {
		defs = append(defs, metricDef{d.name + "_ns", "ns"})
		if allocDrivers[d.name] {
			defs = append(defs, metricDef{d.name + "_allocs", "count"})
		}
	}
	return append(defs,
		metricDef{"shard.speedup_w2", "x"},
		metricDef{"runner.speedup_p2", "x"},
		metricDef{"bench.trace_overhead_s", "s"},
		metricDef{"bench.unsteady_drivers", "count"},
	)
}

// allocDrivers are the drivers whose allocs/op is a per-layer metric: the
// packet paths whose pooling later work targets.
var allocDrivers = map[string]bool{"netsim.hop": true, "mip.tunnel": true}

// layerMetrics derives the per-layer metrics, except the speed-ups and the
// tracing overhead, from an untraced run (counters, runtime), a profiled
// run and a drivers run. It also returns the counters the workload does
// not expose.
func layerMetrics(base, drv childResult, p *cpuProfile) (map[string]metric, []string) {
	m := map[string]metric{}
	var unexposed []string
	for _, c := range counters {
		v, ok := base.Batch.Counters[c.name]
		if !ok {
			unexposed = append(unexposed, c.name)
		}
		m[c.name] = metric{v, c.unit}
	}
	shares, gc, malloc := p.shares()
	for _, l := range layers {
		m[l+".cpu_share"] = metric{shares[l], "%"}
	}
	m["runtime.gc_cpu_share"] = metric{gc, "%"}
	m["runtime.malloc_cpu_share"] = metric{malloc, "%"}
	m["runtime.mallocs"] = metric{float64(base.Mallocs), "count"}
	m["runtime.gc_cycles"] = metric{float64(base.GCCycles), "count"}
	m["runtime.gc_pause_ms"] = metric{base.GCPauseMS, "ms"}
	for _, d := range drv.Drivers {
		m[d.Name+"_ns"] = metric{d.NsPerOp, "ns"}
		if allocDrivers[d.Name] {
			m[d.Name+"_allocs"] = metric{float64(d.AllocsPerOp), "count"}
		}
	}
	m["shard.speedup_w2"] = metric{0, "x"}
	m["runner.speedup_p2"] = metric{0, "x"}
	return m, unexposed
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1, median and q3 by the exclusive method Python's
// statistics.quantiles uses by default.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return [3]float64{m, m, m}
	}
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return [3]float64{q(1), median(s), q(3)}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// provenance describes where and on what a result was measured.
func provenance(seed int64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	// The variables children do not inherit, as the caller had them set.
	cleared := map[string]string{}
	for _, name := range clearedEnv {
		if v, ok := os.LookupEnv(name); ok {
			cleared[name] = v
		}
	}
	return map[string]any{
		"env_cleared":   cleared,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"seed":          seed,
		"scenario_seed": scenarioSeed(seed),
	}
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories, so results from a checkout without git history still
// name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
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

// writePins runs every workload at every pinned scenario seed in this
// process and writes the outcome digests. Run it only at a commit whose
// outcomes are known good; every later run is checked against them.
func writePins(path string) error {
	out := pins{}
	for _, w := range workloads {
		out[w.name] = map[string]map[string]string{}
		for s := int64(1); s <= pinVariants; s++ {
			b := w.run(s, w.workers, nil)
			pin := map[string]string{}
			for _, o := range b.Ops {
				if o.Err != "" || o.SessionsLeft > 0 {
					return fmt.Errorf("%s seed %d: %s cannot be pinned: err %q, %d sessions left", w.name, s, o.ID, o.Err, o.SessionsLeft)
				}
				if _, dup := pin[o.ID]; dup {
					return fmt.Errorf("%s: duplicate op %s", w.name, o.ID)
				}
				pin[o.ID] = o.Digest
			}
			for g, d := range b.Groups {
				pin[g] = d
			}
			out[w.name][strconv.FormatInt(s, 10)] = pin
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: %d ops\n", w.name, s, len(b.Ops))
			runtime.GC()
		}
	}
	return writeJSON(path, out)
}
