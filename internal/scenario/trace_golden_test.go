package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wireless"
)

// attachEagerTrace replicates the pre-lazy tracing hooks: every event is
// formatted with fmt.Sprintf at emit time, exactly as AttachTrace used to.
// It chains onto whatever hooks are already installed, so it can run next
// to the typed AttachTrace on the same testbed.
func attachEagerTrace(tb *Testbed, log *trace.Log) {
	hookAR := func(name string, ar *core.AccessRouter) {
		prevDrop := ar.OnDrop
		ar.OnDrop = func(pkt *inet.Packet, where string) {
			if prevDrop != nil {
				prevDrop(pkt, where)
			}
			inner := pkt.Innermost()
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindDrop, Node: name,
				Seq:    int64(inner.Seq),
				Detail: fmt.Sprintf("%s flow=%d class=%s (%s)", inner.Proto, inner.Flow, inner.Class, where),
			})
		}
		prevCtl := ar.OnControl
		ar.OnControl = func(kind fho.Kind) {
			if prevCtl != nil {
				prevCtl(kind)
			}
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindControl, Node: name,
				Detail: "sends " + kind.String(),
			})
		}
	}
	hookAR("par", tb.PAR)
	hookAR("nar", tb.NAR)

	for i, unit := range tb.MHs {
		name := fmt.Sprintf("mh%d", i)
		unit := unit
		prevCtl := unit.MH.OnControl
		unit.MH.OnControl = func(kind fho.Kind) {
			if prevCtl != nil {
				prevCtl(kind)
			}
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindControl, Node: name,
				Detail: "sends " + kind.String(),
			})
		}
		prevDone := unit.MH.OnHandoffDone
		unit.MH.OnHandoffDone = func(rec core.HandoffRecord) {
			if prevDone != nil {
				prevDone(rec)
			}
			log.Emit(trace.Event{
				At: rec.Detached, Kind: trace.KindLinkDown, Node: name,
				Detail: "L2 blackout begins",
			})
			log.Emit(trace.Event{
				At: rec.Attached, Kind: trace.KindLinkUp, Node: name,
				Detail: "attached to the new access point",
			})
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindHandoff, Node: name,
				Detail: fmt.Sprintf("complete (anticipated=%t link-layer=%t nar=%t par=%t)",
					rec.Anticipated, rec.LinkLayerOnly, rec.NARGranted, rec.PARGranted),
			})
		}
		prevDeliver := unit.MH.OnDeliver
		unit.MH.OnDeliver = func(pkt *inet.Packet) {
			if prevDeliver != nil {
				prevDeliver(pkt)
			}
			log.Emit(trace.Event{
				At: tb.Engine.Now(), Kind: trace.KindDeliver, Node: name,
				Seq:    int64(pkt.Seq),
				Detail: fmt.Sprintf("%s flow=%d class=%s", pkt.Proto, pkt.Flow, pkt.Class),
			})
		}
	}
}

// TestLazyTraceRendersIdenticallyToEager runs one full handoff scenario
// with the typed lazy trace and an eagerly formatted replica of the old
// hooks attached side by side, then requires the rendered protocol trace
// and the ns-2 export to match byte for byte.
func TestLazyTraceRendersIdenticallyToEager(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
	})
	tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
		AudioFlow(inet.ClassRealTime),
	})
	lazy := trace.NewLog(0)
	eager := trace.NewLog(0)
	tb.AttachTrace(lazy)
	attachEagerTrace(tb, eager)

	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}

	if lazy.Len() == 0 || lazy.Len() != eager.Len() {
		t.Fatalf("event counts diverge: lazy %d, eager %d", lazy.Len(), eager.Len())
	}
	if got, want := lazy.Render(), eager.Render(); got != want {
		t.Fatalf("rendered traces diverge:\n--- lazy ---\n%s\n--- eager ---\n%s",
			firstDiffContext(got, want), firstDiffContext(want, got))
	}
	var lazyNS2, eagerNS2 strings.Builder
	if err := trace.NewNS2Writer(&lazyNS2).WriteLog(lazy); err != nil {
		t.Fatalf("ns2 lazy: %v", err)
	}
	if err := trace.NewNS2Writer(&eagerNS2).WriteLog(eager); err != nil {
		t.Fatalf("ns2 eager: %v", err)
	}
	if lazyNS2.String() != eagerNS2.String() {
		t.Fatal("ns-2 exports diverge")
	}
}

// firstDiffContext trims two long strings to the lines around their first
// difference, keeping failure output readable.
func firstDiffContext(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(al) {
				hi = len(al)
			}
			return fmt.Sprintf("line %d:\n%s", i+1, strings.Join(al[lo:hi], "\n"))
		}
	}
	return "(prefix of the other)"
}

// TestStreamingTestbedRetainsNoSamples pins the streaming recorder's
// memory contract on a real run: delays are counted and aggregated but no
// per-packet samples are retained.
func TestStreamingTestbedRetainsNoSamples(t *testing.T) {
	tb := NewTestbed(Params{
		Scheme:        core.SchemeEnhanced,
		PoolSize:      40,
		Alpha:         2,
		BufferRequest: 20,
		StatsMode:     stats.ModeStreaming,
	})
	tb.AddMobileHost(wireless.Linear{Start: 50, Speed: MHSpeed}, []FlowSpec{
		AudioFlow(inet.ClassHighPriority),
	})
	tb.StartTraffic()
	if err := tb.Run(12 * sim.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tb.StopTraffic()
	if err := tb.Engine.Run(14 * sim.Second); err != nil {
		t.Fatalf("Run drain: %v", err)
	}
	for _, f := range tb.Recorder.Flows() {
		if f.DelayCount() == 0 {
			t.Fatalf("flow %d observed no delays", f.Flow)
		}
		if len(f.Delays) != 0 {
			t.Fatalf("streaming flow %d retained %d samples", f.Flow, len(f.Delays))
		}
		if f.MaxDelay() == 0 || f.MeanDelay() == 0 {
			t.Fatalf("flow %d streaming aggregates empty", f.Flow)
		}
	}
}
