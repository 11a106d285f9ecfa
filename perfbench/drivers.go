package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// A layer driver times one call into a layer's public functions against
// fixed-size, pre-warmed state sized from the workload it stands for. It is
// steady when its median ns/op at two iteration counts agree within
// driverBound and its allocs/op repeat exactly; an unsteady driver is
// reported as such rather than dropped.
const (
	driverBound   = 0.2
	driverSamples = 7
	// driverSample is the target duration of one timed sample at the
	// smaller iteration count; the larger count is driverScale times it.
	driverSample = 4 * time.Millisecond
	driverScale  = 4
)

// driver builds a layer driver's state and returns the timed operation.
type driver struct {
	name  string
	build func(s sizing) func()
}

var drivers = []driver{
	{"sim.push_pop", buildSchedDriver},
	{"netsim.hop", buildWiredHopDriver},
	{"wireless.air_hop", buildAirHopDriver},
	{"wireless.beacon_scan", buildBeaconDriver},
	{"buffer.push_pop", buildBufferDriver},
	{"mip.tunnel", buildTunnelDriver},
	{"stats.record", buildRecordDriver},
}

// driverResult is one driver's measurement.
type driverResult struct {
	Name string `json:"name"`
	// NsPerOp and AllocsPerOp are taken at the larger iteration count.
	NsPerOp     float64    `json:"ns_per_op"`
	AllocsPerOp uint64     `json:"allocs_per_op"`
	Iters       [2]int     `json:"iters"`
	Ns          [2]float64 `json:"ns"`
	Allocs      [2]uint64  `json:"allocs"`
	// AllocsRepeat is false when allocs/op differed between samples of
	// one count.
	AllocsRepeat bool `json:"allocs_repeat"`
	Steady       bool `json:"steady"`
}

// must panics on a simulation error inside a driver: the drivers build
// fixed, valid state, so an error is a bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// buildSchedDriver holds HeapDepth live events and replaces one per op, the
// hold pattern a running simulation puts the scheduler through.
func buildSchedDriver(s sizing) func() {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	var delays [4096]sim.Time
	for i := range delays {
		delays[i] = sim.Time(1+rng.Intn(1000)) * sim.Microsecond
	}
	fn := func() {}
	for i := 0; i < s.HeapDepth; i++ {
		e.At(delays[i%len(delays)], fn)
	}
	i := 0
	return func() {
		e.At(e.Now()+delays[i&(len(delays)-1)], fn)
		e.Step()
		i++
	}
}

// buildWiredHopDriver sends one pool-allocated UDP packet of the workload's
// size across one wired hop: send, serialization, propagation, delivery,
// release.
func buildWiredHopDriver(s sizing) func() {
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	src := netsim.NewHost("a", inet.Addr{Net: 1, Host: 1})
	dst := netsim.NewHost("b", inet.Addr{Net: 2, Host: 1})
	topo.Connect(src, dst, netsim.LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})
	dst.Receive = func(pkt *inet.Packet) { topo.ReleasePacket(pkt) }
	return func() {
		pkt := topo.AllocPacket()
		pkt.Src, pkt.Dst = src.Addr(), dst.Addr()
		pkt.Proto, pkt.Size = inet.ProtoUDP, s.PacketSize
		src.Send(pkt)
		must(e.RunAll())
	}
}

// buildAirHopDriver hands one downlink frame of the workload's size to an
// access point and runs it over the air to an associated station.
func buildAirHopDriver(s sizing) func() {
	e := sim.NewEngine()
	medium := wireless.NewMedium(e)
	ap := wireless.NewAccessPoint("ap", medium, wireless.APConfig{
		Radius: 112, BandwidthBPS: 11_000_000, AirDelay: sim.Millisecond,
	})
	st := wireless.NewStation("mh", medium, wireless.Fixed(10), wireless.StationConfig{})
	addr := inet.Addr{Net: 10, Host: 5}
	st.AddAddr(addr)
	st.Associate(ap)
	pkt := &inet.Packet{Dst: addr, Proto: inet.ProtoUDP, Size: s.PacketSize}
	return func() {
		ap.HandlePacket(nil, pkt)
		must(e.RunAll())
	}
}

// buildBeaconDriver fires one access point beacon over the workload's
// station count, spaced so about two dozen stations are in coverage.
func buildBeaconDriver(s sizing) func() {
	e := sim.NewEngine()
	medium := wireless.NewMedium(e)
	ap := wireless.NewAccessPoint("ap", medium, wireless.APConfig{Pos: float64(s.Stations) * 5, Radius: 112})
	for i := 0; i < s.Stations; i++ {
		wireless.NewStation(fmt.Sprintf("s%d", i), medium, wireless.Fixed(float64(i)*10), wireless.StationConfig{})
	}
	const interval = 100 * sim.Millisecond
	ap.StartAdvertising(wireless.Advertisement{Net: 10}, interval, 0)
	return func() { must(e.Run(e.Now() + interval)) }
}

// buildBufferDriver holds an access router buffer of the workload's pool
// size half full and pushes and pops one packet per op.
func buildBufferDriver(s sizing) func() {
	b := buffer.New(s.Pool, s.Alpha)
	p := &inet.Packet{Class: inet.ClassHighPriority, Size: s.PacketSize}
	for b.Len() < s.Pool/2 {
		b.Push(p)
	}
	return func() {
		b.Push(p)
		b.Pop()
	}
}

// buildTunnelDriver pushes one packet addressed to a registered RCoA into a
// MAP agent, which tunnels it one wired hop to the bound care-of address,
// where both layers are released.
func buildTunnelDriver(s sizing) func() {
	e := sim.NewEngine()
	topo := netsim.NewTopology(e)
	mapRouter := netsim.NewRouter("map", inet.Addr{Net: 50, Host: 1})
	mh := netsim.NewHost("mh", inet.Addr{Net: 2, Host: 7})
	topo.Connect(mapRouter, mh, netsim.LinkConfig{BandwidthBPS: 10e6, Delay: sim.Millisecond})
	topo.ClaimNet(2, mh)
	topo.ClaimNet(50, mapRouter)
	must(topo.ComputeRoutes())
	agent := mip.NewAgent(e, mapRouter, mip.AgentConfig{ManagedNet: 50})
	rcoa := inet.Addr{Net: 50, Host: 7}
	agent.Register(rcoa, mh.Addr(), 1<<62)
	mh.Receive = func(pkt *inet.Packet) {
		topo.ReleasePacket(pkt.Inner)
		topo.ReleasePacket(pkt)
	}
	return func() {
		pkt := topo.AllocPacket()
		pkt.Src, pkt.Dst = inet.Addr{Net: 1, Host: 1}, rcoa
		pkt.Proto, pkt.Size = inet.ProtoUDP, s.PacketSize
		mapRouter.HandlePacket(nil, pkt)
		must(e.RunAll())
	}
}

// buildRecordDriver records one delivery into a recorder in the workload's
// stats mode. An exact recorder keeps every sample, so the driver starts a
// fresh recorder every recordSpan deliveries to hold its state to a fixed
// size; the swap is part of the measured cost.
func buildRecordDriver(s sizing) func() {
	const recordSpan = 4096
	p := &inet.Packet{Flow: 1, Class: inet.ClassHighPriority, Proto: inet.ProtoUDP, Size: s.PacketSize}
	var r *stats.Recorder
	var t sim.Time
	n := 0
	return func() {
		if n%recordSpan == 0 {
			r = stats.NewRecorderMode(s.Recorder)
			r.DeclareFlow(p.Flow, p.Class)
		}
		n++
		t += sim.Millisecond
		r.Delivered(p, t)
	}
}

// sample times n ops and returns ns/op and whole allocations per op, as
// testing.AllocsPerRun counts them.
func sample(opFn func(), n int) (float64, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for j := 0; j < n; j++ {
		opFn()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), (m1.Mallocs - m0.Mallocs) / uint64(n)
}

// runDriver warms a driver up, sizes its iteration counts from a
// calibration run, and measures it at both counts.
func runDriver(d driver, s sizing) driverResult {
	opFn := d.build(s)
	n := 0
	start := time.Now()
	for time.Since(start) < driverSample || n < 64 {
		opFn()
		n++
	}
	res := driverResult{Name: d.name, Iters: [2]int{n, n * driverScale}, AllocsRepeat: true}
	// The two counts' samples interleave, so drift in the host's speed
	// reaches both medians alike.
	var times [2][]float64
	for i := 0; i < driverSamples; i++ {
		for k, iters := range res.Iters {
			ns, allocs := sample(opFn, iters)
			times[k] = append(times[k], ns)
			if i > 0 && allocs != res.Allocs[k] {
				res.AllocsRepeat = false
			}
			res.Allocs[k] = allocs
		}
	}
	for k := range times {
		res.Ns[k] = median(times[k])
	}
	res.NsPerOp, res.AllocsPerOp = res.Ns[1], res.Allocs[1]
	res.Steady = res.steady()
	return res
}

// steady reports whether the medians at the two counts agree within
// driverBound and allocs/op repeated exactly.
func (r driverResult) steady() bool {
	lo, hi := r.Ns[0], r.Ns[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	return r.AllocsRepeat && r.Allocs[0] == r.Allocs[1] && hi <= lo*(1+driverBound)
}
