package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*ShardGroup).runShare":                "shard",
		"repro/internal/sim.(*ShardGroup).dispatch.func1":          "shard",
		"repro/internal/sim.(*epochBarrier).await":                 "shard",
		"repro/internal/sim.(*heapQueue).down":                     "sim",
		"repro/internal/sim.eventLess":                             "sim",
		"repro/internal/sim.(*Engine).Step":                        "sim",
		"repro/internal/netsim.(*ShardExchange).Flush":             "shard",
		"repro/internal/netsim.(*xPort).park":                      "shard",
		"repro/internal/netsim.(*Iface).sendFused":                 "netsim",
		"repro/internal/wireless.(*fifo[go.shape.struct {}]).Push": "wireless",
		"repro/internal/core.(*AccessRouter).HandlePacket":         "core",
		"repro/internal/buffer.(*Buffer).Push":                     "buffer",
		"repro/internal/mip.(*Agent).intercept":                    "mip",
		"repro/internal/stats.(*P2Quantile).Add":                   "stats",
		"repro/internal/tcp.(*Sender).onAck":                       "tcp",
		"repro/internal/runner.runOne":                             "runner",
		"repro/internal/scenario.RunMetro":                         "scenario",
		"repro/internal/traffic.(*CBR).emit":                       "traffic",
		"repro/internal/inet.(*Packet).Encapsulate":                "inet",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":             "runtime",
		"repro/internal/fho.EncodeHI":                              "other",
		"sort.Sort":                                                "other",
		"main.runFigures":                                          "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSharesSumToHundred(t *testing.T) {
	p := &cpuProfile{
		stacks: [][]string{
			{"repro/internal/sim.(*heapQueue).down", "repro/internal/sim.(*Engine).Step"},
			{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
			{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/inet.(*Packet).Encapsulate"},
			{"repro/internal/sim.(*ShardGroup).runShare"},
		},
		weights: []int64{40, 30, 20, 10},
	}
	shares, gc, malloc := p.shares()
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if sum < 99.999 || sum > 100.001 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
	if shares["sim"] != 40 || shares["runtime"] != 50 || shares["shard"] != 10 {
		t.Fatalf("shares = %v", shares)
	}
	if gc != 30 || malloc != 20 {
		t.Fatalf("gc %v malloc %v, want 30 and 20", gc, malloc)
	}
}

//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i ^ (x >> 3)
	}
	return x
}

var sink int

func TestDecodeProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := cpuSeconds(); cpuSeconds()-start < 0.3; {
		sink += spin(1 << 20)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range p.stacks {
		if len(st) > 0 && st[0] == "repro/perfbench.spin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no self sample in spin among %d samples", len(p.stacks))
	}
}

// TestPerturbedOutcomeCountsAsFailure pins a batch and then perturbs it the
// ways a regression would: every perturbation must count as a failed op.
func TestPerturbedOutcomeCountsAsFailure(t *testing.T) {
	cell := scenario.MetroCell{Hosts: 2000, Handoffs: 2000, Grants: 900, Refusals: 1100, Lost: [3]uint64{1, 2, 3}}
	good := batch{
		Ops: []op{
			{ID: "metro/dual/n2000", Digest: digest(metroOutcome("dual", cell))},
			{ID: "fig4.12/r0", Digest: digest("tcp_timeouts=1;"), Group: "fig4.12/aggregate"},
		},
		Groups: map[string]string{"fig4.12/aggregate": digest("agg")},
	}
	pin := map[string]string{}
	for _, o := range good.Ops {
		pin[o.ID] = o.Digest
	}
	pin["fig4.12/aggregate"] = good.Groups["fig4.12/aggregate"]
	if n, f := checkBatch(pin, good); len(f) != 0 || n != 2 {
		t.Fatalf("pinned batch: %d attempted, failures %v", n, f)
	}

	lost := cell
	lost.Lost[0]++
	events := cell
	events.Events = 12345
	for name, tc := range map[string]struct {
		mutate func(b *batch)
		fails  int
	}{
		"lost packet":        {func(b *batch) { b.Ops[0].Digest = digest(metroOutcome("dual", lost)) }, 1},
		"sessions left open": {func(b *batch) { b.Ops[0].SessionsLeft = 1 }, 1},
		"panic":              {func(b *batch) { b.Ops[1].Err = "panic: boom" }, 1},
		"aggregate differs":  {func(b *batch) { b.Groups = map[string]string{"fig4.12/aggregate": digest("x")} }, 1},
		"renamed op":         {func(b *batch) { b.Ops[0].ID = "metro/dual/n4000" }, 2},
		"missing op":         {func(b *batch) { b.Ops = b.Ops[1:] }, 1},
		"missing group": {func(b *batch) {
			b.Ops, b.Groups = b.Ops[:1], nil
		}, 2},
		"event count only": {func(b *batch) { b.Ops[0].Digest = digest(metroOutcome("dual", events)) }, 0},
	} {
		b := good
		b.Ops = append([]op(nil), good.Ops...)
		tc.mutate(&b)
		n, f := checkBatch(pin, b)
		if len(f) != tc.fails || n < len(f) || n < len(b.Ops) {
			t.Errorf("%s: %d of %d attempted failed, want %d: %v", name, len(f), n, tc.fails, f)
		}
	}
}

// TestChildEnvDropsSwitches checks that a child never inherits the
// program's classic-path switches or the runtime's GC tuning.
func TestChildEnvDropsSwitches(t *testing.T) {
	got := childEnv([]string{"PATH=/bin", "NETSIM_FUSED=0", "WIRELESS_FUSED=0", "GOGC=off", "GOMAXPROCS=2", "GOGCX=1"})
	want := []string{"PATH=/bin", "GOMAXPROCS=2", "GOGCX=1"}
	if !slices.Equal(got, want) {
		t.Fatalf("childEnv = %v, want %v", got, want)
	}
}

// TestCityOutcomeIgnoresUnpinnedCounters checks that the city pin leaves
// out the event, barrier, flush and worker counts but keeps the model's
// outcome.
func TestCityOutcomeIgnoresUnpinnedCounters(t *testing.T) {
	base := scenario.CityResult{Handoffs: 4000, Grants: 10, Refusals: 20, ShardEvents: []uint64{1, 2}}
	free := base
	free.Events, free.ShardEvents, free.Workers = 99, []uint64{5, 6}, 2
	free.Barrier = sim.ShardStats{Rounds: 7}
	free.Flushes, free.ElidedFlushes, free.Wall = 3, 4, 5
	if cityOutcome(base) != cityOutcome(free) {
		t.Fatal("city outcome depends on an unpinned counter")
	}
	moved := base
	moved.AirUpDrops++
	if cityOutcome(base) == cityOutcome(moved) {
		t.Fatal("city outcome ignores the air counters")
	}
}

func TestDriverSteadiness(t *testing.T) {
	for _, tc := range []struct {
		r    driverResult
		want bool
	}{
		{driverResult{Ns: [2]float64{100, 110}, AllocsRepeat: true}, true},
		{driverResult{Ns: [2]float64{110, 100}, Allocs: [2]uint64{1, 1}, AllocsRepeat: true}, true},
		{driverResult{Ns: [2]float64{100, 130}, AllocsRepeat: true}, false},
		{driverResult{Ns: [2]float64{130, 100}, AllocsRepeat: true}, false},
		{driverResult{Ns: [2]float64{100, 100}, Allocs: [2]uint64{1, 2}, AllocsRepeat: true}, false},
		{driverResult{Ns: [2]float64{100, 100}, AllocsRepeat: false}, false},
	} {
		if got := tc.r.steady(); got != tc.want {
			t.Errorf("steady(%+v) = %v, want %v", tc.r, got, tc.want)
		}
	}
	// A real driver reports both counts and a verdict.
	r := runDriver(drivers[0], workloads[0].size)
	if r.Iters[1] != driverScale*r.Iters[0] || r.Ns[0] <= 0 || r.Ns[1] <= 0 || r.Steady != r.steady() {
		t.Fatalf("runDriver = %+v", r)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and of [1, 2, 3].
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles 1..10 = %v", q)
	}
	if q := quartiles([]float64{3, 1, 2}); q != [3]float64{1, 2, 3} {
		t.Fatalf("quartiles 1..3 = %v", q)
	}
}

func TestPinsCoverEverySeed(t *testing.T) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		t.Fatal(err)
	}
	for seed := int64(-7); seed < 20; seed++ {
		s := scenarioSeed(seed)
		if s < 1 || s > pinVariants {
			t.Fatalf("scenarioSeed(%d) = %d", seed, s)
		}
		for _, w := range workloads {
			if len(p[w.name][strconv.FormatInt(s, 10)]) == 0 {
				t.Fatalf("no pins for %s at scenario seed %d", w.name, s)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	got := map[string]metric{}
	for _, d := range endToEnd {
		got[d.name] = metric{1, d.unit}
	}
	if err := checkMetrics(got, endToEnd); err != nil {
		t.Fatal(err)
	}
	got["wall_s"] = metric{1, "ms"}
	if checkMetrics(got, endToEnd) == nil {
		t.Fatal("wrong unit accepted")
	}
	delete(got, "wall_s")
	if checkMetrics(got, endToEnd) == nil {
		t.Fatal("missing metric accepted")
	}
}
