// Command perfbench is the repository's benchmark. It runs one of four
// closed-batch workloads (figures, metro, city, tcp_replicas) in child
// processes, checks every simulated outcome against the values pinned in
// pinned.json, and prints one JSON result line. With -trace 0 the result
// holds the end-to-end metrics; with -trace 1 it holds the per-layer
// metrics from counters, a CPU profile and layer drivers. See README.md.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload metro --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

//go:embed pinned.json
var pinnedJSON []byte

// pins maps workload -> scenario seed -> op or group ID -> outcome digest.
type pins map[string]map[string]map[string]string

// pinVariants is how many scenario seeds have pinned outcomes. The
// benchmark seed picks one of them, so every input the benchmark can
// generate has a known correct outcome.
const pinVariants = 5

// scenarioSeed is the generated input a benchmark seed selects.
func scenarioSeed(seed int64) int64 {
	return 1 + ((seed%pinVariants)+pinVariants)%pinVariants
}

// Each timed run repeats the batch at least minReps times and stops
// starting new ones once the next would end after --seconds. No run may
// start a child after runBudget, keeping the whole command inside 180 s.
const (
	minReps   = 3
	runBudget = 150 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: figures, metro, city, tcp_replicas or all")
		seed    = flag.Int64("seed", 1, "benchmark seed; selects the generated inputs")
		seconds = flag.Float64("seconds", 20, "how long a timed run repeats its batch")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and trace documents")
		pinOut  = flag.String("pin", "", "regenerate pinned outcomes at the current commit into this file and exit")

		child   = flag.String("child", "", "run as a child process: timed, profiled or drivers")
		cseed   = flag.Int64("scenario-seed", 0, "child: scenario seed")
		workers = flag.Int("workers", 1, "child: worker bound")
		profile = flag.String("profile", "", "child: CPU profile path")
	)
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = runChild(*child, *name, *cseed, *workers, *profile)
	case *pinOut != "":
		err = writePins(*pinOut)
	default:
		err = runParent(*name, *seed, *seconds, *trace, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(name string, seed int64, seconds float64, trace int, outDir string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var pinned pins
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	var ws []workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	r := &parent{ctx: ctx, self: self, outDir: outDir, seed: seed, pinned: pinned}
	prov := provenance(seed)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var rep *report
		want := endToEnd
		if trace == 0 {
			rep, err = r.timed(w, time.Duration(seconds*float64(time.Second)))
		} else {
			rep, err = r.traced(w)
			want = perLayer()
		}
		if err == nil {
			err = checkMetrics(rep.Metrics, want)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Provenance = prov
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d-trace%d.json",
			time.Now().UTC().Format("20060102T150405"), w.name, seed, trace)), rep); err != nil {
			return err
		}
		printReport(w.name, rep)
		final.Attempted += rep.Attempted
		final.Failed += len(rep.Failures)
		final.Correct = final.Correct && len(rep.Failures) == 0
		for k, m := range rep.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkMetrics verifies that a run reports exactly the metrics
// BENCHMARK.json lists for its mode, with their units.
func checkMetrics(got map[string]metric, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	return nil
}

// parent spawns and checks child processes for one benchmark invocation.
type parent struct {
	ctx    context.Context
	self   string
	outDir string
	seed   int64
	pinned pins
}

// report is everything one workload run produced; it is written to the
// output directory with the run's provenance.
type report struct {
	Workload     string            `json:"workload"`
	ScenarioSeed int64             `json:"scenario_seed"`
	Metrics      map[string]metric `json:"metrics"`
	Attempted    int               `json:"attempted"`
	Failures     []string          `json:"failures"`
	FailedFrac   float64           `json:"failed_frac"`
	// Spread gives each end-to-end metric's quartiles over the run's reps.
	Spread map[string][3]float64 `json:"spread,omitempty"`
	// StealFrac is the median over the repetitions of the share of the
	// machine's CPU time the host stole while a batch ran.
	StealFrac  float64        `json:"steal_frac"`
	Unsteady   []string       `json:"unsteady_drivers,omitempty"`
	Unexposed  []string       `json:"unexposed_counters,omitempty"`
	Children   []childResult  `json:"children"`
	Provenance map[string]any `json:"provenance"`
}

// spawn runs one child and decodes its result.
func (r *parent) spawn(mode string, w workload, workers int, profile string) (childResult, error) {
	var res childResult
	args := []string{"-child", mode, "-workload", w.name,
		"-scenario-seed", strconv.FormatInt(scenarioSeed(r.seed), 10), "-workers", strconv.Itoa(workers)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	cmd := exec.CommandContext(r.ctx, r.self, args...)
	cmd.Env = childEnv(os.Environ())
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("child %s: %w", mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("child %s output: %w", mode, err)
	}
	return res, nil
}

// clearedEnv names the variables a child never inherits: the program's
// own switches back to its classic code paths, and the Go runtime's
// collector and scheduler tuning. Children run the production paths with
// the runtime's defaults, whatever the caller's environment holds.
var clearedEnv = []string{"NETSIM_FUSED", "WIRELESS_FUSED", "GOGC", "GOMEMLIMIT", "GODEBUG"}

// childEnv returns env without the cleared variables.
func childEnv(env []string) []string {
	var out []string
	for _, kv := range env {
		name, _, _ := strings.Cut(kv, "=")
		if !slices.Contains(clearedEnv, name) {
			out = append(out, kv)
		}
	}
	return out
}

// check counts a child's ops against the pins and returns how many ops
// were attempted and one line per failed op.
func (r *parent) check(w workload, c childResult) (int, []string) {
	return checkBatch(r.pinned[w.name][strconv.FormatInt(scenarioSeed(r.seed), 10)], c.Batch)
}

// checkBatch returns how many ops the batch attempted and one line per
// failed op: it raised an error, left a handoff session open, or its
// outcome (or its group's aggregate) differs from the pin. A pinned op or
// group that never ran is attempted and failed too, so work that goes
// missing cannot shrink the batch unnoticed.
func checkBatch(pin map[string]string, b batch) (int, []string) {
	var failures []string
	ran := map[string]bool{}
	for g := range b.Groups {
		ran[g] = true
	}
	for _, o := range b.Ops {
		ran[o.ID] = true
		why := ""
		switch {
		case o.Err != "":
			why = o.Err
		case o.SessionsLeft > 0:
			why = fmt.Sprintf("%d sessions left open", o.SessionsLeft)
		case pin[o.ID] == "":
			why = "no pinned outcome"
		case o.Digest != pin[o.ID]:
			why = "outcome differs from pin"
		case o.Group != "" && b.Groups[o.Group] != pin[o.Group]:
			why = o.Group + " differs from pin"
		}
		if why != "" {
			failures = append(failures, o.ID+": "+why)
		}
	}
	attempted := len(b.Ops)
	for _, id := range sortedKeys(pin) {
		if !ran[id] {
			attempted++
			failures = append(failures, id+": pinned but never ran")
		}
	}
	return attempted, failures
}

// timed runs the workload's batch in fresh children until the run has
// measured for d, and reports each end-to-end metric's median.
func (r *parent) timed(w workload, d time.Duration) (*report, error) {
	rep := &report{Workload: w.name, ScenarioSeed: scenarioSeed(r.seed)}
	start := time.Now()
	for {
		c, err := r.spawn("timed", w, w.workers, "")
		if err != nil {
			return nil, err
		}
		r.record(rep, w, c)
		elapsed := time.Since(start)
		per := elapsed / time.Duration(len(rep.Children))
		if len(rep.Children) >= minReps && elapsed+per > d {
			break
		}
	}
	var steal []float64
	for _, c := range rep.Children {
		steal = append(steal, c.StealFrac)
	}
	rep.StealFrac = median(steal)
	cols := map[string]func(childResult) float64{
		"wall_s":      func(c childResult) float64 { return c.WallS },
		"setup_s":     func(c childResult) float64 { return c.SetupS },
		"cpu_s":       func(c childResult) float64 { return c.CPUS },
		"peak_rss_mb": func(c childResult) float64 { return c.PeakRSSMB },
		"alloc_mb":    func(c childResult) float64 { return c.AllocMB },
	}
	rep.Metrics = map[string]metric{}
	rep.Spread = map[string][3]float64{}
	for _, m := range endToEnd {
		var xs []float64
		for _, c := range rep.Children {
			xs = append(xs, cols[m.name](c))
		}
		rep.Metrics[m.name] = metric{median(xs), m.unit}
		rep.Spread[m.name] = quartiles(xs)
	}
	return rep, nil
}

// record checks a child's ops against the pins and adds the child and its
// failures to the report.
func (r *parent) record(rep *report, w workload, c childResult) {
	attempted, failures := r.check(w, c)
	rep.Children = append(rep.Children, c)
	rep.Attempted += attempted
	rep.Failures = append(rep.Failures, failures...)
	rep.FailedFrac = float64(len(rep.Failures)) / float64(rep.Attempted)
}

// traced runs the workload untraced (at its production worker bound and,
// where it has one, at the serial bound), then profiled, then the layer
// drivers, each in its own child, and derives the per-layer metrics.
func (r *parent) traced(w workload) (*report, error) {
	rep := &report{Workload: w.name, ScenarioSeed: scenarioSeed(r.seed)}
	base, err := r.spawn("timed", w, w.workers, "")
	if err != nil {
		return nil, err
	}
	r.record(rep, w, base)
	ref := base
	var speedup float64
	if w.serial > 0 {
		serial, err := r.spawn("timed", w, w.serial, "")
		if err != nil {
			return nil, err
		}
		r.record(rep, w, serial)
		speedup = serial.WallS / base.WallS
		if w.name == "city" {
			// The traced city run uses one worker, so its overhead is
			// taken against the one-worker run.
			ref = serial
		}
	}
	profPath := filepath.Join(r.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, r.seed))
	prof, err := r.spawn("profiled", w, ref.Workers, profPath)
	if err != nil {
		return nil, err
	}
	r.record(rep, w, prof)
	if prof.PID == base.PID || prof.PID == ref.PID {
		return nil, fmt.Errorf("profiled run shared process %d with a timed run", prof.PID)
	}
	drv, err := r.spawn("drivers", w, 1, "")
	if err != nil {
		return nil, err
	}
	rep.Children = append(rep.Children, drv)
	p, err := readProfile(profPath)
	if err != nil {
		return nil, err
	}
	rep.Metrics, rep.Unexposed = layerMetrics(base, drv, p)
	switch w.name {
	case "city":
		rep.Metrics["shard.speedup_w2"] = metric{speedup, "x"}
	case "tcp_replicas":
		rep.Metrics["runner.speedup_p2"] = metric{speedup, "x"}
	}
	rep.Metrics["bench.trace_overhead_s"] = metric{prof.WallS - ref.WallS, "s"}
	for _, d := range drv.Drivers {
		if !d.Steady {
			rep.Unsteady = append(rep.Unsteady, d.Name)
		}
	}
	rep.Metrics["bench.unsteady_drivers"] = metric{float64(len(rep.Unsteady)), "count"}
	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printReport(name string, rep *report) {
	fmt.Fprintf(os.Stderr, "== %s (scenario seed %d, %d runs, steal %.1f%%, %d/%d ops failed, failed_frac %.4g)\n",
		name, rep.ScenarioSeed, len(rep.Children), 100*rep.StealFrac, len(rep.Failures), rep.Attempted, rep.FailedFrac)
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "   FAIL", f)
	}
	for _, k := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[k]
		if q, ok := rep.Spread[k]; ok {
			fmt.Fprintf(os.Stderr, "   %-28s %12.6g %-6s (q1 %.6g, q3 %.6g)\n", k, m.Value, m.Unit, q[0], q[2])
		} else {
			fmt.Fprintf(os.Stderr, "   %-28s %12.6g %s\n", k, m.Value, m.Unit)
		}
	}
	if len(rep.Unsteady) > 0 {
		fmt.Fprintln(os.Stderr, "   unsteady drivers:", rep.Unsteady)
	}
}
