package scenario

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wireless"
)

// DefaultMetroHosts is the metro sweep's host-count axis.
var DefaultMetroHosts = []int{10, 50, 200, 500, 1000, 2000}

// Metro traffic timing: each host's audio flow runs only in a window
// around its own handoff (lead before the expected trigger, stop after
// reattachment), so the air interface never has to carry all N flows at
// once — the contention under test is the buffer pool, not the radio.
const (
	// metroTrafficLead is when a host's flow starts, relative to the
	// instant the host begins moving (the handoff triggers ≈5.6 s after
	// that, when the NAR's AP becomes strictly closer).
	metroTrafficLead = 4 * sim.Second
	// metroTrafficStop is when the flow stops, leaving ≈2.4 s of traffic
	// after the expected handoff for the drain to be observable.
	metroTrafficStop = 8 * sim.Second
	// metroPerHostStagger spreads handoff start instants so the number of
	// concurrently active handoffs (and flows) stays bounded as N grows.
	metroPerHostStagger = 33 * sim.Millisecond
	// metroMinWindow is the smallest stagger window, used for small N.
	metroMinWindow = 10 * sim.Second
)

// metroWindow returns the stagger window for a host count.
func metroWindow(hosts int) sim.Time {
	w := sim.Time(hosts) * metroPerHostStagger
	if w < metroMinWindow {
		w = metroMinWindow
	}
	return w
}

// MetroParams configures the metro-scale mass-handoff sweep.
type MetroParams struct {
	// Hosts is the sweep axis: how many mobile hosts hand off PAR→NAR per
	// cell. Nil selects DefaultMetroHosts (10 → 2000).
	Hosts []int
	// PoolSize is each access router's buffer pool in packets.
	PoolSize int
	// BufferRequest is the per-host buffer demand in packets. The
	// NAR-only variant requests all of it at the NAR; the dual variant
	// splits it across both routers, so total pool demand per handoff is
	// equal and the capacity comparison is fair.
	BufferRequest int
	// StaggerWindow overrides the window handoff starts are spread over.
	// Zero scales it with the host count (metroWindow), keeping radio
	// load bounded while the pool stays oversubscribed.
	StaggerWindow sim.Time
	// Seed drives beacon phases.
	Seed int64
	// Engine optionally reuses a simulation engine (see Params.Engine).
	Engine *sim.Engine
}

func (p *MetroParams) applyDefaults() {
	if p.Hosts == nil {
		p.Hosts = DefaultMetroHosts
	}
	if p.PoolSize <= 0 {
		p.PoolSize = 240
	}
	if p.BufferRequest <= 0 {
		p.BufferRequest = 12
	}
}

// MetroCell is one (variant, host count) outcome.
type MetroCell struct {
	Hosts int
	// Handoffs counts completed handoffs across all hosts.
	Handoffs int
	// Grants/Refusals are buffer reservations granted and turned away,
	// summed over both routers. A refusal is a handoff that proceeds
	// without buffering.
	Grants   uint64
	Refusals uint64
	// PeakNAR/PeakPAR are the maximum simultaneous granted sessions per
	// router — the observed handoff concurrency each pool absorbed.
	PeakNAR int
	PeakPAR int
	// Lost is end-to-end packet loss per class (real-time,
	// high-priority, best-effort).
	Lost [3]uint64
	// MaxDelayMs/MeanDelayMs summarize delivery delay across all flows;
	// buffered packets carry their buffering (drain) latency here.
	MaxDelayMs  float64
	MeanDelayMs float64
	// SessionsLeft counts handoff sessions still open after the
	// post-run drain; zero in a correct run.
	SessionsLeft int
	// Events is the number of scheduler events the cell's run processed —
	// the per-cell cost axis the analytic link fast path halves on wired
	// hops. It depends on the radio transmit path (fused vs classic),
	// never on scheduler choice or engine reuse.
	Events uint64
	// SafetyNet bandwidth-overhead accounting (zero for the buffering
	// variants): anchor duplicates emitted, total packet sends, and where
	// the redundant copies were suppressed.
	DupPackets uint64
	DupBytes   uint64
	DedupMH    uint64
	DedupNAR   uint64
	TotalSent  uint64
}

// ExhaustionRate is the fraction of buffer requests refused.
func (c MetroCell) ExhaustionRate() float64 {
	total := c.Grants + c.Refusals
	if total == 0 {
		return 0
	}
	return float64(c.Refusals) / float64(total)
}

// OverheadRatio is the bicast duplicates emitted per packet sent — the
// backhaul bandwidth SafetyNet pays instead of pool space.
func (c MetroCell) OverheadRatio() float64 {
	if c.TotalSent == 0 {
		return 0
	}
	return float64(c.DupPackets) / float64(c.TotalSent)
}

// MetroVariant is one buffering variant's sweep.
type MetroVariant struct {
	Name    string
	Slug    string
	Scheme  core.Scheme
	Request int
	Cells   []MetroCell
}

// MetroResult holds the variant × host-count grid.
type MetroResult struct {
	Params   MetroParams
	Variants []MetroVariant
}

// CapacityRatio returns the dual variant's peak NAR concurrency over the
// NAR-only variant's at the largest host count — the thesis' "roughly
// doubled simultaneous handoffs" claim, measured.
func (r MetroResult) CapacityRatio() float64 {
	var narOnly, dual int
	for _, v := range r.Variants {
		cell := v.Cells[len(v.Cells)-1]
		switch v.Slug {
		case "nar":
			narOnly = cell.PeakNAR
		case "dual":
			dual = cell.PeakNAR
		}
	}
	if narOnly == 0 {
		return 0
	}
	return float64(dual) / float64(narOnly)
}

// RunMetro sweeps N staggered handoffs against shared router pools for the
// NAR-only and dual buffering variants at equal per-handoff pool demand,
// plus the SafetyNet bicast variant, which sidesteps the pool entirely.
func RunMetro(p MetroParams) MetroResult {
	p.applyDefaults()
	res := MetroResult{Params: p}
	variants := []MetroVariant{
		{Name: "original fast handover (NAR only)", Slug: "nar",
			Scheme: core.SchemeFHOriginal, Request: p.BufferRequest},
		{Name: "dual buffering (split across PAR+NAR)", Slug: "dual",
			Scheme: core.SchemeDual, Request: (p.BufferRequest + 1) / 2},
		// SafetyNet claims no pool space at all: the request is the demand
		// the buffering variants would have placed, kept for a fair axis,
		// but the routers grant nothing and exhaustion stays at zero while
		// the anchor pays in duplicate backhaul traffic instead.
		{Name: "safetynet bicast (no AR buffering)", Slug: "sfn",
			Scheme: core.SchemeSafetyNet, Request: p.BufferRequest},
	}
	for _, v := range variants {
		for _, hosts := range p.Hosts {
			v.Cells = append(v.Cells, runMetroCell(p, v.Scheme, v.Request, hosts))
		}
		res.Variants = append(res.Variants, v)
	}
	return res
}

// runMetroCell runs one (variant, host count) cell to completion.
func runMetroCell(p MetroParams, scheme core.Scheme, request, hosts int) MetroCell {
	window := p.StaggerWindow
	if window <= 0 {
		window = metroWindow(hosts)
	}
	tb := NewTestbed(Params{
		Scheme:        scheme,
		PoolSize:      p.PoolSize,
		Alpha:         2,
		BufferRequest: request,
		Seed:          p.Seed,
		Engine:        p.Engine,
		// Metro cells only report max/mean delay, which the streaming
		// recorder tracks exactly; skipping per-packet samples keeps a
		// 2000-host sweep at O(flows) memory instead of O(packets).
		StatsMode: stats.ModeStreaming,
	})
	for i := 0; i < hosts; i++ {
		from := window * sim.Time(i) / sim.Time(hosts)
		unit := tb.AddMobileHost(
			wireless.Linear{Start: 50, Speed: MHSpeed, From: from},
			[]FlowSpec{AudioFlow(inet.Classes[i%3])},
		)
		src := unit.Sources[0]
		src.Start(from + metroTrafficLead)
		tb.Engine.Schedule(from+metroTrafficStop, src.Stop)
	}
	horizon := window + 12*sim.Second
	if err := tb.Engine.Run(horizon); err != nil {
		panic(fmt.Sprintf("metro: %v", err))
	}
	tb.StopTraffic()
	// Drain past the session-lifetime backstop so leaks would be visible.
	if err := tb.Engine.Run(tb.Engine.Now() + core.DefaultSessionLifetime + 2*sim.Second); err != nil {
		panic(fmt.Sprintf("metro drain: %v", err))
	}

	cell := MetroCell{
		Hosts:        hosts,
		Events:       tb.Engine.Processed(),
		Grants:       tb.PAR.PoolGrants() + tb.NAR.PoolGrants(),
		Refusals:     tb.PAR.PoolRefusals() + tb.NAR.PoolRefusals(),
		PeakNAR:      tb.NAR.PeakGrantedSessions(),
		PeakPAR:      tb.PAR.PeakGrantedSessions(),
		SessionsLeft: tb.PAR.Sessions() + tb.NAR.Sessions(),
		DupPackets:   tb.Recorder.DupPackets(),
		DupBytes:     tb.Recorder.DupBytes(),
		DedupMH:      tb.Recorder.DedupDiscardsMH(),
		DedupNAR:     tb.Recorder.DedupDiscardsNAR(),
		TotalSent:    tb.Recorder.TotalSent(),
	}
	var delaySum float64
	var delayed int
	for _, unit := range tb.MHs {
		cell.Handoffs += len(unit.MH.Handoffs())
		for _, flowID := range unit.Flows {
			f := tb.Recorder.Flow(flowID)
			if f == nil {
				continue
			}
			cell.Lost[classIndex(f.Class)] += f.Lost()
			if ms := f.MaxDelay().Milliseconds(); ms > cell.MaxDelayMs {
				cell.MaxDelayMs = ms
			}
			if f.DelayCount() > 0 {
				delaySum += f.MeanDelay().Milliseconds()
				delayed++
			}
		}
	}
	if delayed > 0 {
		cell.MeanDelayMs = delaySum / float64(delayed)
	}
	return cell
}

// classIndex maps a class to its position in inet.Classes.
func classIndex(c inet.Class) int {
	for i, cc := range inet.Classes {
		if c.Effective() == cc {
			return i
		}
	}
	return len(inet.Classes) - 1
}

// Render prints the grid.
func (r MetroResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Metro-scale mass handoff: pool pressure per variant "+
		"(pool=%d/router, demand=%d packets/handoff)\n",
		r.Params.PoolSize, r.Params.BufferRequest)
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "\n%s (request %d)\n", v.Name, v.Request)
		if v.Scheme == core.SchemeSafetyNet {
			// The bicast variant trades pool space for backhaul bandwidth,
			// so its table carries the duplicate-traffic columns the
			// buffering variants have no use for.
			fmt.Fprintf(&b, "%7s%10s%8s%9s%9s%8s%8s%8s%10s%10s%10s%12s\n",
				"hosts", "handoffs", "grants", "refused", "exhaust",
				"lostRT", "lostHP", "lostBE", "maxdelay", "dups", "overhead", "events")
			for _, c := range v.Cells {
				fmt.Fprintf(&b, "%7d%10d%8d%9d%8.0f%%%8d%8d%8d%8.0fms%10d%9.3fx%12d\n",
					c.Hosts, c.Handoffs, c.Grants, c.Refusals, c.ExhaustionRate()*100,
					c.Lost[0], c.Lost[1], c.Lost[2], c.MaxDelayMs,
					c.DupPackets, c.OverheadRatio(), c.Events)
			}
			continue
		}
		fmt.Fprintf(&b, "%7s%10s%8s%9s%9s%9s%9s%8s%8s%8s%10s%12s\n",
			"hosts", "handoffs", "grants", "refused", "exhaust",
			"peakNAR", "peakPAR", "lostRT", "lostHP", "lostBE", "maxdelay", "events")
		for _, c := range v.Cells {
			fmt.Fprintf(&b, "%7d%10d%8d%9d%8.0f%%%9d%9d%8d%8d%8d%8.0fms%12d\n",
				c.Hosts, c.Handoffs, c.Grants, c.Refusals, c.ExhaustionRate()*100,
				c.PeakNAR, c.PeakPAR, c.Lost[0], c.Lost[1], c.Lost[2], c.MaxDelayMs, c.Events)
		}
	}
	fmt.Fprintf(&b, "\ncapacity ratio (dual peakNAR / NAR-only peakNAR at %d hosts): %.2f\n",
		r.Params.Hosts[len(r.Params.Hosts)-1], r.CapacityRatio())
	return b.String()
}

// WriteCSV emits the grid as rows of variant,hosts,counters.
func (r MetroResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "variant,hosts,handoffs,grants,refusals,exhaustion_rate,"+
		"peak_nar,peak_par,lost_rt,lost_hp,lost_be,max_delay_ms,mean_delay_ms,sessions_left,"+
		"dup_packets,dup_bytes,dedup_mh,dedup_nar,overhead_ratio,events"); err != nil {
		return err
	}
	for _, v := range r.Variants {
		for _, c := range v.Cells {
			_, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%g,%g,%d,%d,%d,%d,%d,%g,%d\n",
				v.Slug, c.Hosts, c.Handoffs, c.Grants, c.Refusals, c.ExhaustionRate(),
				c.PeakNAR, c.PeakPAR, c.Lost[0], c.Lost[1], c.Lost[2],
				c.MaxDelayMs, c.MeanDelayMs, c.SessionsLeft,
				c.DupPackets, c.DupBytes, c.DedupMH, c.DedupNAR, c.OverheadRatio(), c.Events)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// MetroSpec wraps the metro sweep as a seedable runner spec. Per-cell
// metrics are keyed by variant slug and host count (e.g. peak_nar_dual_n2000);
// capacity_ratio is the headline dual/NAR-only concurrency comparison.
func MetroSpec(p MetroParams) runner.Spec {
	d := p
	d.applyDefaults()
	return scratchSpec{
		name: "metro",
		desc: fmt.Sprintf("mass-handoff pool pressure: variants nar/dual/sfn, pool=%d demand=%d hosts up to %d",
			d.PoolSize, d.BufferRequest, d.Hosts[len(d.Hosts)-1]),
		run: func(engine *sim.Engine, seed int64) runner.Metrics {
			p := p
			p.Seed = seed
			p.Engine = engine
			res := RunMetro(p)
			m := runner.Metrics{"capacity_ratio": res.CapacityRatio()}
			for _, v := range res.Variants {
				for _, c := range v.Cells {
					key := v.Slug + "_n" + strconv.Itoa(c.Hosts)
					m["handoffs_"+key] = float64(c.Handoffs)
					m["refusal_rate_"+key] = c.ExhaustionRate()
					m["peak_nar_"+key] = float64(c.PeakNAR)
					m["peak_par_"+key] = float64(c.PeakPAR)
					for k, suffix := range classSuffix {
						m["lost_"+suffix+"_"+key] = float64(c.Lost[k])
					}
					m["max_delay_ms_"+key] = c.MaxDelayMs
					m["sessions_left_"+key] = float64(c.SessionsLeft)
					m["events_"+key] = float64(c.Events)
					if v.Scheme == core.SchemeSafetyNet {
						m["dup_packets_"+key] = float64(c.DupPackets)
						m["overhead_ratio_"+key] = c.OverheadRatio()
					}
				}
			}
			return m
		}}
}
