package scenario

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wireless"
)

// cityTestParams is a reduced city that still exercises every moving part:
// multiple domains per shard, both region MAPs, co-located and cross-shard
// MAP links, and a full handoff per host.
func cityTestParams() CityParams {
	return CityParams{
		Domains:        4,
		HostsPerDomain: 25,
		MAPs:           2,
		StaggerWindow:  5 * sim.Second,
		Seed:           7,
	}
}

// cityBytes renders the deterministic output (summary + CSV) of a run.
func cityBytes(t *testing.T, res CityResult) string {
	t.Helper()
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return res.Render() + csv.String()
}

func TestCityOneShardIsSerialEngine(t *testing.T) {
	// The differential golden check: a 1-shard partition must be the
	// serial engine, byte for byte. Structurally (no mailbox ports exist,
	// so every link is a plain same-engine link) and observably (stepping
	// through the shard group produces the identical output to stepping
	// the engine directly).
	p := cityTestParams()
	p.Shards = 1
	p.Workers = 1
	viaGroup := RunCity(p)
	if viaGroup.CrossPorts != 0 {
		t.Fatalf("1-shard city registered %d mailbox ports, want 0 (must be the serial engine)", viaGroup.CrossPorts)
	}
	serial := p
	serial.forceSerial = true
	viaSerial := RunCity(serial)
	got, want := cityBytes(t, viaGroup), cityBytes(t, viaSerial)
	if got != want {
		t.Fatalf("1-shard group run diverged from the serial engine:\n--- group ---\n%s\n--- serial ---\n%s", got, want)
	}
}

func TestCityDeterministicAcrossWorkers(t *testing.T) {
	// For a fixed shard count the output must be byte-identical at any
	// worker count: shards are isolated within an epoch and the exchange
	// runs single-threaded in fixed port order, so shard-to-worker
	// assignment cannot leak into results.
	p := cityTestParams()
	p.Shards = 4
	run := func(workers int) string {
		q := p
		q.Workers = workers
		return cityBytes(t, RunCity(q))
	}
	ref := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); got != ref {
			t.Fatalf("city output diverged between 1 and %d workers:\n--- %d workers ---\n%s\n--- 1 worker ---\n%s",
				workers, workers, got, ref)
		}
	}
}

func TestCityRepeatableAcrossRuns(t *testing.T) {
	// Same parameters, fresh build: byte-identical, for every shard count
	// (each partition is deterministic; partitions differ from each other
	// only in same-instant tie-breaks).
	for _, shards := range []int{1, 3, 8} {
		p := cityTestParams()
		p.Shards = shards
		p.Workers = 4
		a := cityBytes(t, RunCity(p))
		b := cityBytes(t, RunCity(p))
		if a != b {
			t.Fatalf("shards=%d: two identical runs diverged:\n%s\n---\n%s", shards, a, b)
		}
	}
}

func TestCityCompletesEveryHandoff(t *testing.T) {
	p := cityTestParams()
	p.Shards = 3
	p.Workers = 4
	res := RunCity(p)
	want := p.Domains * p.HostsPerDomain
	if res.Handoffs != want {
		t.Fatalf("handoffs = %d, want %d (one per host)", res.Handoffs, want)
	}
	if res.SessionsLeft != 0 {
		t.Fatalf("%d handoff sessions leaked past the drain", res.SessionsLeft)
	}
	if res.TotalSent == 0 {
		t.Fatal("no traffic recorded")
	}
	lost := res.Lost[0] + res.Lost[1] + res.Lost[2]
	if lost*10 > res.TotalSent {
		t.Fatalf("lost %d of %d packets — the city should lose well under 10%%", lost, res.TotalSent)
	}
	// The enhanced scheme's whole point: real-time traffic fares no worse
	// than best-effort under buffer pressure.
	if res.Lost[0] > res.Lost[2] {
		t.Fatalf("real-time lost more than best-effort (%d > %d)", res.Lost[0], res.Lost[2])
	}
	if res.Events == 0 || res.CrossPorts == 0 {
		t.Fatalf("events=%d crossPorts=%d — sharded run should report both", res.Events, res.CrossPorts)
	}
}

func TestCityAssignDeterministicAndBalanced(t *testing.T) {
	mapShard, domShard := cityAssign(2, 50, 8)
	mapShard2, domShard2 := cityAssign(2, 50, 8)
	for i := range mapShard {
		if mapShard[i] != mapShard2[i] {
			t.Fatal("cityAssign is not deterministic")
		}
	}
	load := make([]int, 8)
	for i := range domShard {
		if domShard[i] != domShard2[i] {
			t.Fatal("cityAssign is not deterministic")
		}
		load[domShard[i]]++
	}
	min, max := load[0], load[0]
	for _, l := range load[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// 50 domains + 2 MAP units over 8 shards: greedy LPT keeps the spread
	// within one MAP-weight of even.
	if max-min > 13 {
		t.Fatalf("domain load spread %v too uneven", load)
	}
}

// benchCityParams is the CI speedup benchmark's workload: big enough that
// the barrier cost is amortized, small enough for -benchtime 1x on CI.
func benchCityParams(shards, workers int) CityParams {
	return CityParams{
		Domains:        8,
		HostsPerDomain: 150,
		MAPs:           2,
		Shards:         shards,
		Workers:        workers,
		StaggerWindow:  5 * sim.Second,
		Seed:           3,
	}
}

// BenchmarkCityShardedSpeedup measures the same city serial and sharded;
// the CI gate pins both, and their ratio is the parallel speedup.
func BenchmarkCityShardedSpeedup(b *testing.B) {
	for _, cfg := range []struct {
		name            string
		shards, workers int
	}{
		{"shards1", 1, 1},
		{"shards8", 8, 8},
		// Worker sweep at a fixed partition: how the barrier behaves when
		// goroutines are scarcer than shards (w1 also isolates protocol
		// cost from parallelism).
		{"shards8w1", 8, 1},
		{"shards8w2", 8, 2},
		{"shards8w4", 8, 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := RunCity(benchCityParams(cfg.shards, cfg.workers))
				if res.Handoffs == 0 {
					b.Fatal("no handoffs")
				}
			}
		})
	}
}

// stripBarrierLine removes the barrier-statistics line from a rendered city
// summary — the one line that legitimately differs between the adaptive and
// fixed epoch modes (it reports the protocol, not the simulation).
func stripBarrierLine(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "barrier: ") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// citySparseParams is the sparse-handoff regime the adaptive barrier
// targets: one staggered handoff per domain spread over ten minutes, so
// beacons and rare cross-shard bursts dominate and fixed-width epochs
// degenerate into empty synchronized rounds.
func citySparseParams() CityParams {
	return CityParams{
		Domains:        4,
		HostsPerDomain: 1,
		MAPs:           2,
		Shards:         4,
		Workers:        2,
		StaggerWindow:  600 * sim.Second,
		Seed:           7,
	}
}

func TestCityAdaptiveMatchesFixedEpochs(t *testing.T) {
	// The differential golden for the adaptive barrier: on the same
	// parameters, the adaptive and fixed-width epoch protocols must produce
	// byte-identical simulations — everything except the barrier line.
	for _, tc := range []struct {
		name string
		p    CityParams
	}{
		{"dense", func() CityParams { p := cityTestParams(); p.Shards = 4; p.Workers = 4; return p }()},
		{"sparse", citySparseParams()},
		{"bench", benchCityParams(8, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			adaptive := RunCity(tc.p)
			f := tc.p
			f.FixedEpochs = true
			fixed := RunCity(f)
			got, want := cityBytes(t, adaptive), cityBytes(t, fixed)
			if stripBarrierLine(got) != stripBarrierLine(want) {
				t.Fatalf("adaptive epochs diverged from fixed epochs:\n--- adaptive ---\n%s\n--- fixed ---\n%s", got, want)
			}
			if a, f := adaptive.Barrier, fixed.Barrier; a.BarrierRounds >= f.BarrierRounds || a.Dispatches >= f.Dispatches {
				t.Fatalf("adaptive barrier did not thin the protocol: adaptive %+v vs fixed %+v", a, f)
			}
		})
	}
}

// TestCityOutputPinned pins the reduced city's output at 4 shards and 2
// workers by digest. wantFull covers every rendered byte: the summary, the
// event and barrier counters, and the CSV. wantPathFree covers what the
// simulation computed — the CSV, every aggregate, the link utilization and
// the air counters — but not what it cost. Both were recorded while the
// two-event link was still a production path: wantFull on the analytic
// links, and wantPathFree identically on the analytic links, the two-event
// links and the classic radio. The pin therefore keeps "analytic city ==
// two-event city" checked at scale. The classic radio fires more events,
// so under it only wantPathFree is checked.
func TestCityOutputPinned(t *testing.T) {
	const (
		wantFull     = "1698828dab1142805c34bc947c55cf57c04e361f87c53e9583c0046678de3fe2"
		wantPathFree = "d1a08c73101ebe0071946299aaeeb7d03e7d4a24632ff7313049ff0f7eee9bfa"
	)
	p := cityTestParams()
	p.Shards = 4
	p.Workers = 2
	res := RunCity(p)
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	pathFree := fmt.Sprintf("%s%+v", csv.String(), []any{res.Handoffs, res.Grants, res.Refusals, res.Lost,
		res.MaxDelayMs, res.MeanDelayMs, res.SessionsLeft, res.DedupMH, res.DedupNAR, res.DupPackets,
		res.DupBytes, res.TotalSent, res.CrossPorts, res.Links,
		res.AirDownSent, res.AirDownDrops, res.AirUpSent, res.AirUpDrops})
	digest := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
	if got := digest(pathFree); got != wantPathFree {
		t.Fatalf("city results changed: digest %s, want %s\n%s", got, wantPathFree, pathFree)
	}
	if !wireless.FusedAir() {
		return
	}
	if got := digest(cityBytes(t, res)); got != wantFull {
		t.Fatalf("city output changed: digest %s, want %s\n%s", got, wantFull, cityBytes(t, res))
	}
}

// TestCityFusedAirMatchesClassic is the differential golden for the
// analytic air transmit path at city scale: it must produce a simulation
// identical to the classic two-event radio — every per-domain row, every
// aggregate, the link utilization, and the air-plane counters — while
// firing strictly fewer scheduler events.
func TestCityFusedAirMatchesClassic(t *testing.T) {
	if !wireless.FusedAir() {
		t.Skip("air fusion disabled via WIRELESS_FUSED=0; the comparison is vacuous")
	}
	p := cityTestParams()
	p.Shards = 4
	p.Workers = 2
	fused := RunCity(p)
	prev := wireless.SetFusedAir(false)
	defer wireless.SetFusedAir(prev)
	classic := RunCity(p)

	var fcsv, ccsv strings.Builder
	if err := fused.WriteCSV(&fcsv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := classic.WriteCSV(&ccsv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if fcsv.String() != ccsv.String() {
		t.Fatalf("per-domain results diverge:\n--- fused ---\n%s\n--- classic ---\n%s", fcsv.String(), ccsv.String())
	}
	type agg struct {
		Handoffs              int
		Grants, Refusals      uint64
		Lost                  [3]uint64
		MaxDelayMs, MeanDelay float64
		SessionsLeft          int
		DedupMH, DedupNAR     uint64
		DupPackets, TotalSent uint64
		CrossPorts            int
		Links                 []CityLinkUse
		Air                   [4]uint64
	}
	take := func(r CityResult) agg {
		return agg{r.Handoffs, r.Grants, r.Refusals, r.Lost, r.MaxDelayMs, r.MeanDelayMs,
			r.SessionsLeft, r.DedupMH, r.DedupNAR, r.DupPackets, r.TotalSent, r.CrossPorts, r.Links,
			[4]uint64{r.AirDownSent, r.AirDownDrops, r.AirUpSent, r.AirUpDrops}}
	}
	got, want := take(fused), take(classic)
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("aggregates diverge:\n--- fused ---\n%+v\n--- classic ---\n%+v", got, want)
	}
	if fused.Events >= classic.Events {
		t.Fatalf("fused air run fired %d events, classic %d: fusion did not reduce the event count", fused.Events, classic.Events)
	}
}

func TestCityAdaptiveReducesBarrierRounds(t *testing.T) {
	// The acceptance bar: ≥5× fewer synchronized rounds in the sparse
	// regime. The counts are pure functions of the model, so the exact
	// ratio is stable (measured ~10× on this config).
	p := citySparseParams()
	adaptive := RunCity(p)
	f := p
	f.FixedEpochs = true
	fixed := RunCity(f)
	if fixed.Barrier.BarrierRounds < 5*adaptive.Barrier.BarrierRounds {
		t.Fatalf("synchronized rounds reduced only %d→%d, want ≥5×",
			fixed.Barrier.BarrierRounds, adaptive.Barrier.BarrierRounds)
	}
	if adaptive.Barrier.SoloRounds == 0 || adaptive.Barrier.ElidedDispatches == 0 {
		t.Fatalf("adaptive stats %+v: expected solo rounds and elided dispatches", adaptive.Barrier)
	}
	if adaptive.ElidedFlushes == 0 {
		t.Fatalf("no flush was elided (flushes=%d)", adaptive.Flushes)
	}
	if fixed.Barrier.SoloRounds != 0 || fixed.Barrier.ElidedDispatches != 0 {
		t.Fatalf("fixed stats %+v: fixed mode must dispatch every shard every round", fixed.Barrier)
	}
}

func TestSpecsIdenticalAcrossEpochModes(t *testing.T) {
	// Runner metrics from the city spec must not depend on the epoch mode.
	cityP := CityParams{Domains: 4, HostsPerDomain: 25, MAPs: 2, Shards: 4, StaggerWindow: 5 * sim.Second}
	cityF := cityP
	cityF.FixedEpochs = true
	a, err := CitySpec(cityP).Run(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CitySpec(cityF).Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("city spec metrics diverged across epoch modes:\n%v\nvs\n%v", a, b)
	}
}

func TestCityWorkersDefaulting(t *testing.T) {
	// Both defaulting paths (applyDefaults and CitySpec) resolve through
	// cityWorkers: explicit > process default > fallback, clamped to the
	// shard count.
	defer SetDefaultCityWorkers(0)
	DefaultCityWorkers = 0
	if got := cityWorkers(3, 8, 5); got != 3 {
		t.Fatalf("explicit request = %d, want 3", got)
	}
	if got := cityWorkers(0, 8, 5); got != 5 {
		t.Fatalf("fallback = %d, want 5", got)
	}
	SetDefaultCityWorkers(6)
	if got := cityWorkers(0, 8, 5); got != 6 {
		t.Fatalf("process default = %d, want 6", got)
	}
	if got := cityWorkers(0, 2, 5); got != 2 {
		t.Fatalf("shard clamp = %d, want 2", got)
	}
	DefaultCityWorkers = 0
	p := CityParams{Shards: 4, Workers: 16}
	p.applyDefaults()
	if p.Workers != 4 {
		t.Fatalf("applyDefaults workers = %d, want clamp to 4 shards", p.Workers)
	}
}
