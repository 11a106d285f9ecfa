package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// op is one operation's outcome, the unit failed_frac counts: one figure,
// one metro cell, one city run or one runner replica.
type op struct {
	ID string `json:"id"`
	// Digest is the hash of the op's canonical simulated outcome, compared
	// with the value pinned in pinned.json.
	Digest string `json:"digest"`
	// Group names an aggregate whose digest must also match its pin (the
	// runner's per-spec summary for a replica); empty for none.
	Group string `json:"group,omitempty"`
	// Err is a panic or error the op raised.
	Err          string `json:"err,omitempty"`
	SessionsLeft int    `json:"sessions_left"`
}

// batch is what one run of a workload leaves behind for the checker and
// the traced report.
type batch struct {
	Ops []op `json:"ops"`
	// Groups holds the aggregate digests Op.Group refers to.
	Groups map[string]string `json:"groups,omitempty"`
	// Counters are layer counters read through public result accessors.
	Counters map[string]float64 `json:"counters"`
	// SetupS is set-up time measured inside the batch (city only: RunCity
	// minus CityResult.Wall). Zero means the workload has no such split.
	SetupS float64 `json:"setup_s"`
}

// sizing is the state a layer driver is built with, taken from the
// workload the driver stands for.
type sizing struct {
	// HeapDepth is the mean number of live events at each firing, measured
	// on the workload at the commit that introduced the benchmark.
	HeapDepth int
	// PacketSize is the workload's data packet size in bytes.
	PacketSize int
	// Stations is the number of stations sharing one medium.
	Stations int
	// Pool and Alpha size the access router buffer.
	Pool, Alpha int
	// Recorder is the stats mode the workload's recorders run in.
	Recorder stats.Mode
}

// workload is one closed batch the benchmark runs.
type workload struct {
	name string
	// run executes the batch with the given scenario seed and worker
	// bound, recording one span per unit into tr.
	run func(seed int64, workers int, tr *tracer) batch
	// setup builds the workload's reference network once through public
	// constructors, without firing an event. Nil when the batch measures
	// its own set-up (city).
	setup func(seed int64)
	size  sizing
	// workers is the worker bound of the timed run; serial is the bound of
	// the comparison run behind the speed-up metric (0: no comparison).
	workers, serial int
}

var workloads = []workload{
	{
		name: "figures",
		run:  runFigures,
		setup: func(seed int64) {
			tb := scenario.NewTestbed(scenario.Params{PoolSize: 20, Alpha: 6, Seed: seed})
			tb.AddMobileHost(wireless.Linear{Start: 50, Speed: scenario.MHSpeed}, []scenario.FlowSpec{
				scenario.AudioFlow(inet.Classes[0]), scenario.AudioFlow(inet.Classes[1]), scenario.AudioFlow(inet.Classes[2]),
			})
		},
		size:    sizing{HeapDepth: 18, PacketSize: 160, Stations: 12, Pool: 20, Alpha: 6, Recorder: stats.ModeExact},
		workers: 1,
	},
	{
		name:    "metro",
		run:     runMetro,
		setup:   buildMetroNetwork,
		size:    sizing{HeapDepth: 3200, PacketSize: 160, Stations: 2000, Pool: 240, Alpha: 2, Recorder: stats.ModeStreaming},
		workers: 1,
	},
	{
		name:    "city",
		run:     runCity,
		size:    sizing{HeapDepth: 3300, PacketSize: 160, Stations: 500, Pool: 240, Alpha: 2, Recorder: stats.ModeStreaming},
		workers: 2, serial: 1,
	},
	{
		name: "tcp_replicas",
		run:  runTCPReplicas,
		setup: func(seed int64) {
			scenario.NewWLANTestbed(scenario.WLANParams{Buffered: true, Seed: seed})
		},
		size:    sizing{HeapDepth: 65, PacketSize: 1460, Stations: 1, Pool: 200, Alpha: 0, Recorder: stats.ModeExact},
		workers: 2, serial: 1,
	},
}

func workloadByName(name string) (workload, error) {
	var known []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		known = append(known, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, known)
}

// digest hashes a canonical outcome string. 64 bits are ample to tell a
// changed outcome from its pin.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// settle collects the heap before a unit, so each unit starts from the
// same heap state and peak RSS is the peak of the largest unit rather than
// an accident of where the collector's cycle fell across earlier units.
// The program never forces a collection itself, so what settle costs is
// added up in forced and taken out of the batch's wall, CPU and GC figures.
func settle() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuSeconds(), time.Now()
	runtime.GC()
	forced.wallS += time.Since(start).Seconds()
	forced.cpuS += cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	forced.cycles += m1.NumGC - m0.NumGC
	forced.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

// forced is what settle's collections cost in this process.
var forced struct {
	wallS, cpuS float64
	cycles      uint32
	pauseNs     uint64
}

// runOp runs one unit under a span and converts a panic into the op's
// error, so one failing unit never hides the others.
func runOp(id string, tr *tracer, fn func() (outcome string, sessionsLeft int)) (o op) {
	o.ID = id
	settle()
	end := tr.begin(id)
	defer func() {
		end()
		if v := recover(); v != nil {
			o.Err = fmt.Sprint("panic: ", v)
		}
	}()
	outcome, left := fn()
	o.Digest, o.SessionsLeft = digest(outcome), left
	return o
}

func runFigures(seed int64, _ int, tr *tracer) batch {
	b := batch{Counters: map[string]float64{}}
	for _, e := range scenario.Experiments() {
		if e.ID == "metro" || e.ID == "city" {
			continue
		}
		run := e.RunSeeded
		b.Ops = append(b.Ops, runOp("fig/"+e.ID, tr, func() (string, int) {
			r := run(seed)
			switch v := r.(type) {
			case scenario.TCPTraceResult:
				b.Counters["tcp.timeouts"] += float64(v.Timeouts)
			case scenario.Fig414Result:
				b.Counters["tcp.timeouts"] += float64(v.Buffered.Timeouts + v.Unbuffered.Timeouts)
			case scenario.DropTraceResult:
				b.Counters["mip.dup_packets"] += float64(v.DupPackets)
			}
			return r.Render(), 0
		}))
	}
	return b
}

// metroOutcome is a metro cell's pinned outcome: everything but the event
// count, which event-deletion work is free to change.
func metroOutcome(slug string, c scenario.MetroCell) string {
	c.Events = 0
	return fmt.Sprintf("%s %+v", slug, c)
}

// runMetro runs RunMetro at its defaults one host count at a time, which
// runs the same cells as one call and gives each host count its own span.
func runMetro(seed int64, _ int, tr *tracer) batch {
	b := batch{Counters: map[string]float64{}}
	var grants, refusals float64
	for _, hosts := range scenario.DefaultMetroHosts {
		var res scenario.MetroResult
		var err string
		settle()
		func() {
			end := tr.begin("metro/n" + strconv.Itoa(hosts))
			defer func() {
				end()
				if v := recover(); v != nil {
					err = fmt.Sprint("panic: ", v)
				}
			}()
			res = scenario.RunMetro(scenario.MetroParams{Hosts: []int{hosts}, Seed: seed})
		}()
		if err != "" {
			for _, slug := range []string{"nar", "dual", "sfn"} {
				b.Ops = append(b.Ops, op{ID: fmt.Sprintf("metro/%s/n%d", slug, hosts), Err: err})
			}
			continue
		}
		for _, v := range res.Variants {
			c := v.Cells[0]
			b.Ops = append(b.Ops, op{
				ID:           fmt.Sprintf("metro/%s/n%d", v.Slug, c.Hosts),
				Digest:       digest(metroOutcome(v.Slug, c)),
				SessionsLeft: c.SessionsLeft,
			})
			b.Counters["sim.events"] += float64(c.Events)
			b.Counters["core.handoffs"] += float64(c.Handoffs)
			b.Counters["core.sessions_left"] += float64(c.SessionsLeft)
			b.Counters["mip.dup_packets"] += float64(c.DupPackets)
			grants += float64(c.Grants)
			refusals += float64(c.Refusals)
		}
	}
	if grants+refusals > 0 {
		b.Counters["core.refusal_frac"] = refusals / (grants + refusals)
	}
	return b
}

// Metro cell timing, mirrored from the metro scenario: per-host handoff
// stagger, and when each host's flow starts and stops after it begins
// moving.
const (
	metroStagger     = 33 * sim.Millisecond
	metroTrafficLead = 4 * sim.Second
	metroTrafficStop = 8 * sim.Second
)

// buildMetroNetwork builds and arms the network of metro's largest cell
// (dual variant, 2000 hosts) the way a metro cell does, without running it.
func buildMetroNetwork(seed int64) {
	hosts := scenario.DefaultMetroHosts[len(scenario.DefaultMetroHosts)-1]
	tb := scenario.NewTestbed(scenario.Params{
		Scheme: core.SchemeDual, PoolSize: 240, Alpha: 2, BufferRequest: 6,
		Seed: seed, StatsMode: stats.ModeStreaming,
	})
	for i := 0; i < hosts; i++ {
		from := metroStagger * sim.Time(i)
		unit := tb.AddMobileHost(
			wireless.Linear{Start: 50, Speed: scenario.MHSpeed, From: from},
			[]scenario.FlowSpec{scenario.AudioFlow(inet.Classes[i%3])},
		)
		src := unit.Sources[0]
		src.Start(from + metroTrafficLead)
		tb.Engine.Schedule(from+metroTrafficStop, src.Stop)
	}
}

// cityParams is the city workload: 8 domains x 500 hosts, 2 MAPs, 8 shards,
// a 5 s stagger window.
func cityParams(seed int64, workers int) scenario.CityParams {
	return scenario.CityParams{
		Domains: 8, HostsPerDomain: 500, MAPs: 2, Shards: 8, Workers: workers,
		StaggerWindow: 5 * sim.Second, Seed: seed,
	}
}

// cityOutcome is the city's pinned outcome. Event, per-shard, barrier and
// flush counts are left out so event-deletion and barrier work is free to
// change them; Wall and the worker count never belong to the outcome.
func cityOutcome(r scenario.CityResult) string {
	r.Params.Workers, r.Workers, r.Wall = 0, 0, 0
	r.Events, r.ShardEvents = 0, nil
	r.Barrier = sim.ShardStats{}
	r.Flushes, r.ElidedFlushes = 0, 0
	return fmt.Sprintf("%+v", r)
}

func runCity(seed int64, workers int, tr *tracer) batch {
	b := batch{Counters: map[string]float64{}}
	var res scenario.CityResult
	var start time.Time
	var total time.Duration
	o := runOp("city", nil, func() (string, int) {
		start = time.Now()
		res = scenario.RunCity(cityParams(seed, workers))
		total = time.Since(start)
		return cityOutcome(res), res.SessionsLeft
	})
	b.Ops = []op{o}
	if o.Err != "" {
		return b
	}
	b.SetupS = (total - res.Wall).Seconds()
	tr.add("city/setup", start, total-res.Wall)
	tr.add("city/run", start.Add(total-res.Wall), res.Wall)

	c := b.Counters
	c["sim.events"] = float64(res.Events)
	c["shard.rounds"] = float64(res.Barrier.Rounds)
	c["shard.barrier_rounds"] = float64(res.Barrier.BarrierRounds)
	if d := res.Barrier.Dispatches + res.Barrier.ElidedDispatches; d > 0 {
		c["shard.elided_frac"] = float64(res.Barrier.ElidedDispatches) / float64(d)
	}
	if len(res.ShardEvents) > 0 {
		var max, sum uint64
		for _, n := range res.ShardEvents {
			sum += n
			if n > max {
				max = n
			}
		}
		if sum > 0 {
			c["shard.event_imbalance"] = float64(max) * float64(len(res.ShardEvents)) / float64(sum)
		}
	}
	c["shard.xflushes"] = float64(res.Flushes)
	if d := res.Flushes + res.ElidedFlushes; d > 0 {
		c["shard.xflush_elided_frac"] = float64(res.ElidedFlushes) / float64(d)
	}
	for _, l := range res.Links {
		c["netsim.wired_sent"] += float64(l.Sent)
		c["netsim.wired_drops"] += float64(l.Dropped)
	}
	c["wireless.air_sent"] = float64(res.AirDownSent + res.AirUpSent)
	c["wireless.air_drops"] = float64(res.AirDownDrops + res.AirUpDrops)
	c["core.handoffs"] = float64(res.Handoffs)
	c["core.sessions_left"] = float64(res.SessionsLeft)
	if d := res.Grants + res.Refusals; d > 0 {
		c["core.refusal_frac"] = float64(res.Refusals) / float64(d)
	}
	c["mip.dup_packets"] = float64(res.DupPackets)
	return b
}

// tcpSpecs and tcpReplicas define the tcp_replicas batch.
var tcpSpecs = []string{"fig4.12", "fig4.13"}

const tcpReplicas = 64

// canonicalMetrics renders a metrics map with sorted keys.
func canonicalMetrics(m runner.Metrics) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%v;", k, m[k])
	}
	return s
}

func runTCPReplicas(seed int64, workers int, tr *tracer) batch {
	b := batch{Counters: map[string]float64{}, Groups: map[string]string{}}
	pool := runner.NewPool(workers)
	for _, name := range tcpSpecs {
		spec, err := scenario.SpecByName(name)
		var res *runner.Result
		if err == nil {
			settle()
			end := tr.begin("replicas/" + name)
			res, err = pool.Run(context.Background(), spec, tcpReplicas, seed)
			end()
		}
		if err != nil {
			for i := 0; i < tcpReplicas; i++ {
				b.Ops = append(b.Ops, op{ID: fmt.Sprintf("%s/r%d", name, i), Err: err.Error()})
			}
			continue
		}
		group := name + "/aggregate"
		if agg, err := json.Marshal(res.Metrics); err != nil {
			// A NaN or infinite aggregate matches no pin, so it fails.
			b.Groups[group] = "unencodable: " + err.Error()
		} else {
			b.Groups[group] = digest(string(agg))
		}
		for _, rep := range res.Replicas {
			o := op{ID: fmt.Sprintf("%s/r%d", name, rep.Index), Group: group, Err: rep.Error}
			if rep.Err == nil {
				o.Digest = digest(canonicalMetrics(rep.Metrics))
				b.Counters["tcp.timeouts"] += rep.Metrics["tcp_timeouts"]
			}
			b.Ops = append(b.Ops, o)
		}
	}
	return b
}
