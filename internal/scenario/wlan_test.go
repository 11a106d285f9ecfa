package scenario

import (
	"testing"

	"repro/internal/sim"
)

func runWLAN(t *testing.T, buffered bool) *WLANTestbed {
	t.Helper()
	tb := NewWLANTestbed(WLANParams{Buffered: buffered})
	if err := tb.Run(20 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tb
}

func TestWLANHandoffIsLinkLayerOnly(t *testing.T) {
	tb := runWLAN(t, true)
	recs := tb.MH.Handoffs()
	if len(recs) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.LinkLayerOnly {
		t.Error("same-router AP switch not classified as link-layer only")
	}
	if !rec.Anticipated {
		t.Error("handoff not anticipated")
	}
	if !rec.PARGranted {
		t.Error("router did not grant the buffer")
	}
	// Around t≈11.4–12 s as in Figure 4.12.
	if rec.Detached < 11*sim.Second || rec.Detached > 13*sim.Second {
		t.Errorf("blackout started at %v, want ≈11.5 s", rec.Detached)
	}
	// The host keeps its address: no network-layer handoff happened.
	if tb.MH.LCoA().Net != NetWLAN {
		t.Errorf("LCoA moved to net %d", tb.MH.LCoA().Net)
	}
}

func TestWLANBufferedTCPAvoidsTimeout(t *testing.T) {
	tb := runWLAN(t, true)
	if got := tb.Sender.Timeouts(); got != 0 {
		t.Errorf("buffered handoff caused %d TCP timeouts, want 0", got)
	}
	if tb.Receiver.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestWLANUnbufferedTCPStalls(t *testing.T) {
	tb := runWLAN(t, false)
	if got := tb.Sender.Timeouts(); got == 0 {
		t.Error("unbuffered 200 ms blackout caused no TCP timeout")
	}
	rec := tb.MH.Handoffs()[0]
	// Locate the reception gap straddling the blackout: it must last
	// 1–1.7 s (min RTO 1 s + 500 ms tick granularity), the thesis' stall.
	resume, _ := tb.Receiver.RecvTrace.FirstAfter(rec.Detached)
	stall := resume.At - rec.Detached
	if stall < sim.Second || stall > 1800*sim.Millisecond {
		t.Errorf("stall = %v, want the thesis' 1–1.5 s class", stall)
	}
}

func TestWLANBufferedBeatsUnbufferedGoodput(t *testing.T) {
	buffered := runWLAN(t, true)
	unbuffered := runWLAN(t, false)
	b := buffered.Receiver.Delivered()
	u := unbuffered.Receiver.Delivered()
	if b <= u {
		t.Errorf("buffered delivered %d ≤ unbuffered %d", b, u)
	}
	// The stall costs roughly a second of an ~8 Mb/s transfer.
	if b-u < 200_000 {
		t.Errorf("goodput advantage only %d bytes; expected a timeout's worth", b-u)
	}
}

func TestWLANThroughputDipsOnlyDuringHandoff(t *testing.T) {
	tb := runWLAN(t, true)
	rec := tb.MH.Handoffs()[0]
	rate := tb.Receiver.Goodput.Rate()
	// Steady state before the handoff must be several Mb/s.
	var before float64
	n := 0
	for _, pt := range rate {
		if pt.At > 5*sim.Second && pt.At < 10*sim.Second {
			before += pt.Value
			n++
		}
	}
	if n == 0 || before/float64(n) < 2_000_000 {
		t.Fatalf("pre-handoff goodput %.0f b/s too low", before/float64(max(n, 1)))
	}
	// Within a second after re-attach the rate must be back above half the
	// steady state.
	var after float64
	m := 0
	for _, pt := range rate {
		if pt.At > rec.Attached+500*sim.Millisecond && pt.At < rec.Attached+1500*sim.Millisecond {
			after += pt.Value
			m++
		}
	}
	if m == 0 || after/float64(m) < before/float64(n)/2 {
		t.Errorf("post-handoff goodput %.0f b/s did not recover (steady %.0f)",
			after/float64(max(m, 1)), before/float64(n))
	}
}

// TestWLANTCPPacketsRecycled pins the pooled TCP path: over a 20 s run,
// buffered or not, data segments and ACKs are drawn from the topology's
// pool and recycled at their sinks, so the tens of thousands of packets
// the transfer sends need at most a few hundred fresh allocations (the
// in-flight window, plus segments dropped during the blackout).
func TestWLANTCPPacketsRecycled(t *testing.T) {
	for _, buffered := range []bool{true, false} {
		st := runWLAN(t, buffered).Topo.PoolStats()
		if st.Gets <= 30_000 || st.Fresh > 512 {
			t.Errorf("buffered=%v: %d pool gets, %d fresh allocations; want > 30000 gets and at most 512 fresh",
				buffered, st.Gets, st.Fresh)
		}
	}
}
