package scenario

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// drainedTestbedRun walks one mobile host with three audio flows (RT/HP/BE)
// from the PAR to the NAR — one handoff — with traffic for the given
// duration, then runs long enough for every session to close and every
// packet to land (the longest session lifetime plus slack).
func drainedTestbedRun(t *testing.T, p Params, traffic sim.Time) *Testbed {
	t.Helper()
	tb := NewTestbed(p)
	tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassRealTime),
		AudioFlow(inet.ClassHighPriority),
		AudioFlow(inet.ClassBestEffort),
	})
	tb.StartTraffic()
	if err := tb.Run(traffic); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Run(traffic + core.DefaultSessionLifetime + 2*sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	if n := tb.PAR.Sessions() + tb.NAR.Sessions(); n != 0 {
		t.Fatalf("%d sessions left after the drain", n)
	}
	return tb
}

// TestPoolBoundedByLiveState: the packet pool's resting high-water mark
// follows the packets live at once (in flight and buffered across the
// handoff), not the packets ever sent, so doubling the traffic duration
// leaves it unchanged. Before tunnel wrappers were pooled, every
// heap-allocated wrapper was adopted by the pool at the host and the mark
// grew by about one packet per packet sent.
func TestPoolBoundedByLiveState(t *testing.T) {
	p := Params{Scheme: core.SchemeEnhanced, PoolSize: 40, Alpha: 2, BufferRequest: 20}
	short := drainedTestbedRun(t, p, 10*sim.Second).Topo.PoolStats()
	long := drainedTestbedRun(t, p, 20*sim.Second).Topo.PoolStats()
	if long.Gets < 2*short.Gets-100 {
		t.Fatalf("20 s run took %d packets, 10 s run %d; want about twice as many", long.Gets, short.Gets)
	}
	if long.RestingHigh != short.RestingHigh {
		t.Fatalf("resting high-water mark %d after 10 s of traffic, %d after 20 s; want it independent of duration",
			short.RestingHigh, long.RestingHigh)
	}
	// Three flows' worth of packets in flight plus the handoff buffers
	// (20 at each router): far below the ~3000 packets sent in 10 s.
	if short.RestingHigh > 100 {
		t.Fatalf("resting high-water mark %d; want at most 100", short.RestingHigh)
	}
}

// poolLedger sums the recycling counters of a set of topologies.
func poolLedger(topos []*netsim.Topology) (fresh uint64, resting, parked int) {
	for _, topo := range topos {
		st := topo.PoolStats()
		fresh += st.Fresh
		resting += st.Resting
		parked += st.Parked
	}
	return fresh, resting, parked
}

// TestPacketLedgerConserved: after a drained run every pooled packet — CBR
// data and every tunnel wrapper (MAP intercept, PAR redirect and drain,
// SafetyNet bicast copies) — is back at rest in its pool, and nothing
// else is: the packets the pool ever allocated equal the packets resting
// in it, for every scheme, and for the home-agent ladder rung whose
// wrappers die at the MAP's and the host's tunnel exits.
func TestPacketLedgerConserved(t *testing.T) {
	cases := map[string]Params{
		"home-agent": {
			Scheme:         core.SchemeFHNoBuffer,
			Mobility:       core.MobilityPlainMIP,
			HomeAgentDelay: 50 * sim.Millisecond,
		},
		"paced-drain": {
			Scheme: core.SchemeEnhanced, PoolSize: 40, Alpha: 2, BufferRequest: 20,
			DrainInterval: sim.Millisecond,
		},
	}
	for s := core.SchemeFHNoBuffer; s.Valid(); s++ {
		cases[s.String()] = Params{Scheme: s, PoolSize: 40, Alpha: 2, BufferRequest: 20}
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			tb := drainedTestbedRun(t, p, 10*sim.Second)
			fresh, resting, parked := poolLedger([]*netsim.Topology{tb.Topo})
			if fresh != uint64(resting+parked) {
				t.Fatalf("pool allocated %d packets, %d resting + %d parked: %d leaked",
					fresh, resting, parked, int64(fresh)-int64(resting+parked))
			}
			// 1500 data packets, nearly all of them tunnelled at least once.
			if st := tb.Topo.PoolStats(); st.Gets < 2*1500-100 {
				t.Fatalf("%d pool gets for 1500 data packets; want one per data packet and one per wrapper", st.Gets)
			}
		})
	}
}

// TestCityPacketLedger is the ledger on the sharded city, where a MAP's
// tunnel wrappers die on the domain shards and a domain's packets dropped
// on a MAP's side of a link die on the MAP's shard: each parked packet
// goes back to the pool that allocated it at the shard group's exchange,
// so after the run the pools hold exactly what they allocated, and no
// topology hoards packets it never handed out. A single shard reaches the
// exchange only when a run starts, so only the partitioned run recycles a
// MAP's wrappers while it runs.
func TestCityPacketLedger(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			p := cityTestParams()
			p.Shards, p.Workers = shards, 2
			p.applyDefaults()
			c := newCity(p)
			if err := c.run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			var topos []*netsim.Topology
			for _, m := range c.maps {
				topos = append(topos, m.topo)
			}
			for _, dom := range c.domains {
				topos = append(topos, dom.topo)
			}
			fresh, resting, parked := poolLedger(topos)
			if parked != 0 {
				t.Fatalf("%d packets still parked after the run", parked)
			}
			if fresh != uint64(resting) {
				t.Fatalf("pools allocated %d packets, %d resting: %d leaked", fresh, resting, int64(fresh)-int64(resting))
			}
			for i, topo := range topos {
				st := topo.PoolStats()
				if st.Resting > 0 && st.Gets == 0 {
					t.Errorf("topology %d holds %d resting packets but never allocated one", i, st.Resting)
				}
				if shards > 1 && st.Fresh > st.Gets/10 {
					t.Errorf("topology %d allocated %d of its %d packets fresh; want recycling", i, st.Fresh, st.Gets)
				}
			}
		})
	}
}
