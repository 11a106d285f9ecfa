// Command experiments regenerates every table and figure of the thesis'
// evaluation chapter as text tables, and fans Monte-Carlo replicas of the
// headline experiments across a worker pool to report distributions
// (mean ± sd, 95% CI) instead of point estimates.
//
// Usage:
//
//	experiments                 # run everything, in thesis order
//	experiments -fig 4.5        # run one figure
//	experiments -list           # list available figures and runner specs
//	experiments -csv DIR        # additionally write each figure's data as CSV
//	experiments -replicas 32    # 32 seeded replicas of the headline specs
//	experiments -replicas 32 -parallel 8 -json out.json
//	                            # ... across 8 workers, JSON artifact
//	experiments -seeds 5        # shorthand for -replicas 5
//	experiments -spec baseline -replicas 16
//	                            # choose the specs (comma-separated)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// defaultSpecs are the headline experiments the replica fan-out runs when
// -spec is not given: the buffer-capacity claim (Fig 4.2) and the
// mobility-management ladder.
const defaultSpecs = "fig4.2,baseline"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "", "run only this figure (e.g. 4.5)")
	list := fs.Bool("list", false, "list available figures and runner specs")
	csvDir := fs.String("csv", "", "write each figure's data points as CSV into this directory")
	replicas := fs.Int("replicas", 0, "fan out N seeded Monte-Carlo replicas of the selected specs")
	seeds := fs.Int("seeds", 0, "alias for -replicas (the pre-runner flag name)")
	parallel := fs.Int("parallel", 0, "worker bound for the replica pool (0: GOMAXPROCS)")
	rootSeed := fs.Int64("seed", 1, "root seed; per-replica seeds are derived from it")
	jsonOut := fs.String("json", "", "write the replica run's result document to this file ('-': stdout)")
	specList := fs.String("spec", defaultSpecs, "comma-separated runner specs for -replicas (see -list)")
	shards := fs.Int("shards", 0, "shard count for the city scenario (0: fixed default; results depend on the shard count, never on workers)")
	workers := fs.Int("workers", 0, "goroutines running city shards (0: GOMAXPROCS; any value yields byte-identical results)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario.SetDefaultCityShards(*shards)
	scenario.SetDefaultCityWorkers(*workers)
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		return err
	}
	defer stopProfiles() //nolint:errcheck // profile teardown; run result takes precedence
	if *replicas == 0 {
		*replicas = *seeds
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas must be positive (got %d)", *replicas)
	}
	if *replicas == 0 && *jsonOut != "" {
		*replicas = 1
	}
	// An explicit -spec selection means the user wants the runner path;
	// default to a single replica so `-spec metro` alone does a full run.
	if *replicas == 0 {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "spec" {
				*replicas = 1
			}
		})
	}
	if *replicas > 0 {
		return runReplicas(stdout, *specList, *replicas, *parallel, *rootSeed, *jsonOut)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	exps := scenario.Experiments()
	if *list {
		fmt.Fprintln(stdout, "figures (-fig):")
		for _, exp := range exps {
			fmt.Fprintf(stdout, "  %-6s %s\n", exp.ID, exp.Title)
		}
		fmt.Fprintln(stdout, "\nrunner specs (-spec, with -replicas):")
		for _, spec := range scenario.Specs() {
			if d, ok := spec.(interface{ Describe() string }); ok && d.Describe() != "" {
				fmt.Fprintf(stdout, "  %-11s %s\n", spec.Name(), d.Describe())
				continue
			}
			fmt.Fprintf(stdout, "  %s\n", spec.Name())
		}
		return nil
	}

	matched := false
	for _, exp := range exps {
		if *fig != "" && exp.ID != *fig {
			continue
		}
		matched = true
		fmt.Fprintf(stdout, "=== Figure %s — %s ===\n\n", exp.ID, exp.Title)
		result := exp.Run()
		fmt.Fprintln(stdout, result.Render())
		if *csvDir != "" {
			if cw, ok := result.(scenario.CSVWriter); ok {
				path := filepath.Join(*csvDir, "fig"+strings.ReplaceAll(exp.ID, ".", "_")+".csv")
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := cw.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "(data written to %s)\n\n", path)
			}
		}
	}
	if !matched {
		known := make([]string, 0, len(exps))
		for _, exp := range exps {
			known = append(known, exp.ID)
		}
		return fmt.Errorf("unknown figure %q (have: %s)", *fig, strings.Join(known, ", "))
	}
	return nil
}

// runReplicas fans the selected specs across the worker pool and reports
// aggregated distributions, optionally as a JSON artifact.
func runReplicas(stdout io.Writer, specList string, replicas, parallel int, rootSeed int64, jsonOut string) error {
	var specs []runner.Spec
	for _, name := range strings.Split(specList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := scenario.SpecByName(name)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return fmt.Errorf("no specs selected")
	}

	pool := runner.NewPool(parallel)
	doc := runner.NewDocument("experiments", rootSeed, replicas, pool.Workers())
	start := time.Now()
	fmt.Fprintf(stdout, "%d replicas × %d spec(s) across %d worker(s), root seed %d "+
		"(mean ± sd, 95%% CI half-width, [min, max]):\n\n",
		replicas, len(specs), pool.Workers(), rootSeed)
	var failures int
	for _, spec := range specs {
		res, err := pool.Run(context.Background(), spec, replicas, rootSeed)
		if err != nil {
			return err
		}
		doc.Results = append(doc.Results, *res)
		failures += res.Failed()
		fmt.Fprint(stdout, renderResult(res))
	}
	doc.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	if jsonOut != "" {
		w := stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := doc.Encode(w); err != nil {
			return err
		}
		if jsonOut != "-" {
			fmt.Fprintf(stdout, "(result document written to %s)\n", jsonOut)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d replicas failed", failures, replicas*len(specs))
	}
	return nil
}

// renderResult formats one spec's aggregate as text rows.
func renderResult(res *runner.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d", res.Spec, len(res.Replicas))
	if failed := res.Failed(); failed > 0 {
		fmt.Fprintf(&b, ", %d FAILED", failed)
	}
	b.WriteString(")\n")
	for _, m := range res.Metrics {
		fmt.Fprintf(&b, "  %-28s %10.2f ± %-8.2f CI95 ±%-8.2f [%g, %g]\n",
			m.Name, m.Mean, m.StdDev, m.CI95, m.Min, m.Max)
	}
	for _, rep := range res.Replicas {
		if rep.Error != "" {
			fmt.Fprintf(&b, "  replica %d (seed %d) FAILED: %s\n", rep.Index, rep.Seed, rep.Error)
		}
	}
	b.WriteByte('\n')
	return b.String()
}
