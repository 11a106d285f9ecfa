package core

import (
	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/mip"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// MHConfig configures a mobile host's handover engine.
type MHConfig struct {
	// HostID is the host part of every care-of address the host forms.
	// It must be unique across mobile hosts.
	HostID inet.HostID
	// Scheme must match the access routers' scheme.
	Scheme Scheme
	// BufferRequest is the buffer size (packets) asked for in the BI
	// option. Zero sends no BI (plain fast handover).
	BufferRequest int
	// BufferLifetime bounds the granted buffer space. Zero selects
	// DefaultBufferLifetime.
	BufferLifetime sim.Time
	// StartOffset sets BI.Start = now + StartOffset: the PAR begins
	// buffering on its own after this long even without an FBU. Zero
	// selects DefaultStartOffset.
	StartOffset sim.Time
	// FBUGuard is the pause between sending the FBU and detaching, giving
	// the uplink frame time to leave the radio. Zero selects
	// DefaultFBUGuard.
	FBUGuard sim.Time
	// SolicitTimeout is retained for configuration compatibility; the
	// solicitation is now abandoned when the RetransmitInterval /
	// MaxSignalTries retry budget exhausts (see solicitRetry). Zero selects
	// DefaultSolicitTimeout.
	SolicitTimeout sim.Time
	// RetransmitInterval is the initial retransmission timeout for handover
	// signaling that expects an answer (the RtSolPr awaiting its PrRtAdv,
	// the FBU awaiting its FBAck). It doubles on every retry. Zero selects
	// DefaultRetransmitInterval.
	RetransmitInterval sim.Time
	// MaxSignalTries bounds the total transmissions per signaling exchange
	// (the first send plus retries). Zero selects DefaultMaxSignalTries.
	MaxSignalTries int
	// RetransmitUnacked additionally retransmits the protocol's
	// unacknowledged messages — the attach-time FNA/BF release (cleared by
	// an implicit acknowledgment: any packet delivered to the new care-of
	// address) and the post-attach unanticipated FBU (whose FBAck cannot
	// reach the departed address). Off by default: duplicates of
	// unacknowledged messages are sent even on loss-free links, so only
	// loss-injected deployments should pay for them.
	RetransmitUnacked bool
	// RegistrationLifetime is the binding-update lifetime sent to the MAP.
	// Zero selects DefaultRegistrationLifetime.
	RegistrationLifetime sim.Time
	// PCoAHoldTime keeps the previous care-of address active after a
	// handoff so drained packets are still accepted. Zero selects
	// DefaultPCoAHoldTime.
	PCoAHoldTime sim.Time
	// TriggerHoldoff suppresses new handover triggers for this long after
	// an attachment, so beacons from the old access point still audible in
	// the overlap area cannot bounce the host straight back. Zero selects
	// DefaultTriggerHoldoff.
	TriggerHoldoff sim.Time
	// AuthKey, when non-empty, signs the host's FNA messages so access
	// routers requiring authentication accept its handovers.
	AuthKey []byte
	// HysteresisDB is the signal-strength margin a new access point must
	// exceed the current one by before a handover triggers. Zero means
	// "any stronger signal" (equivalent to strictly closer under equal
	// transmit powers).
	HysteresisDB float64
	// Mobility selects fast handover (default) or the plain Mobile IP
	// baseline.
	Mobility Mobility
}

// Defaults for MHConfig fields left zero.
const (
	DefaultBufferLifetime       = 5 * sim.Second
	DefaultStartOffset          = 1 * sim.Second
	DefaultFBUGuard             = 2 * sim.Millisecond
	DefaultSolicitTimeout       = 800 * sim.Millisecond
	DefaultRegistrationLifetime = 60 * sim.Second
	DefaultPCoAHoldTime         = 5 * sim.Second
	DefaultTriggerHoldoff       = 3 * sim.Second
)

func (c *MHConfig) applyDefaults() {
	if c.BufferLifetime == 0 {
		c.BufferLifetime = DefaultBufferLifetime
	}
	if c.StartOffset == 0 {
		c.StartOffset = DefaultStartOffset
	}
	if c.FBUGuard == 0 {
		c.FBUGuard = DefaultFBUGuard
	}
	if c.SolicitTimeout == 0 {
		c.SolicitTimeout = DefaultSolicitTimeout
	}
	if c.RetransmitInterval == 0 {
		c.RetransmitInterval = DefaultRetransmitInterval
	}
	if c.MaxSignalTries == 0 {
		c.MaxSignalTries = DefaultMaxSignalTries
	}
	if c.RegistrationLifetime == 0 {
		c.RegistrationLifetime = DefaultRegistrationLifetime
	}
	if c.PCoAHoldTime == 0 {
		c.PCoAHoldTime = DefaultPCoAHoldTime
	}
	if c.TriggerHoldoff == 0 {
		c.TriggerHoldoff = DefaultTriggerHoldoff
	}
}

// Mobility selects the host's mobility management mode.
type Mobility int

const (
	// MobilityFastHandover (the default) runs the fast-handover protocol
	// with anticipation and buffering.
	MobilityFastHandover Mobility = iota
	// MobilityPlainMIP is the Chapter 2 baseline: movement detection by
	// router advertisements, an immediate link switch, and a Mobile IP
	// registration with the anchor afterwards — no anticipation, no
	// buffering. The handoff outage is detection + blackout +
	// registration round trip, which is what the thesis' enhancements
	// exist to remove.
	MobilityPlainMIP
)

// mhState is the handover state machine.
type mhState int

const (
	mhIdle       mhState = iota // attached, no handoff in progress
	mhSoliciting                // RtSolPr sent, awaiting PrRtAdv
	mhReady                     // PrRtAdv received, FBU sent, about to switch
	mhSwitching                 // in the L2 blackout
	// mhShadowRequest/mhShadowBuffering implement §3.3's "buffer packets
	// at its access router when poor connection quality on a wireless
	// link is detected": the buffering machinery runs without any link
	// switch.
	mhShadowRequest
	mhShadowBuffering
)

// HandoffRecord captures one completed handoff for analysis.
type HandoffRecord struct {
	// Triggered is when the host decided to hand off (L2-ST).
	Triggered sim.Time
	// Advertised is when the PrRtAdv arrived (zero on the unanticipated
	// path); Triggered→Advertised is the anticipation signalling time
	// (RtSolPr + HI/HAck round trip).
	Advertised sim.Time
	// Detached and Attached bound the L2 blackout.
	Detached sim.Time
	Attached sim.Time
	// Completed is when the release signalling (FNA/BF, binding update)
	// was sent after attachment.
	Completed sim.Time
	// LinkLayerOnly marks a same-router AP switch.
	LinkLayerOnly bool
	// Anticipated is false for the fallback path where the host lost its
	// old link before the fast-handover signalling completed.
	Anticipated bool
	// NARGranted/PARGranted echo the negotiation outcome.
	NARGranted bool
	PARGranted bool
}

// MobileHost is the mobile side of the handover protocol. It owns a
// wireless station and reacts to router advertisements, link events and
// control messages.
type MobileHost struct {
	engine  *sim.Engine
	station *wireless.Station
	cfg     MHConfig

	rcoa    inet.Addr
	mapAddr inet.Addr
	lcoa    inet.Addr
	arAddr  inet.Addr
	arNet   inet.NetID

	auth *fho.Authenticator

	state         mhState
	target        wireless.Advertisement
	ncoa          inet.Addr
	narAddr       inet.Addr
	llOnly        bool
	unanticipated bool
	prevAR        inet.Addr
	current       HandoffRecord
	buSeq         uint16
	lastAttach    sim.Time

	// Solicitation retransmission (RtSolPr awaiting its PrRtAdv).
	solicitT    *sim.Timer
	solTries    int
	lastSolicit *fho.RtSolPr
	// FBU retransmission (awaiting its FBAck).
	fbuT       *sim.Timer
	fbuTries   int
	fbuPending bool
	lastFBU    *fho.FBU
	fbuDst     inet.Addr
	// Release retransmission (the attach-time FNA/BF, with
	// RetransmitUnacked), cleared by the implicit acknowledgment.
	relT        *sim.Timer
	relTries    int
	relPending  bool
	lastRelease fho.Message

	signalingFailures uint64

	buRetry   *sim.Timer
	buRefresh *sim.Timer
	buPending bool
	buTries   int

	heardAPs map[string]*wireless.AccessPoint

	handoffs []HandoffRecord

	// SafetyNet per-flow sequence windows (linear scan: a host carries a
	// handful of flows).
	flowSeen []flowDedup

	// OnDeliver receives every application packet (innermost, tunnels
	// stripped) addressed to the host.
	OnDeliver func(pkt *inet.Packet)
	// ReleaseTunnel, if set, receives the outermost packet after its
	// tunnel wrappers have been stripped (outer != inner). The wrappers
	// are dead at that point; a recycling sink can return them to a
	// packet pool. inner is still live and must not be released here.
	ReleaseTunnel func(outer, inner *inet.Packet)
	// OnDuplicate receives every redundant bicast copy the SafetyNet dedup
	// window suppressed (the innermost packet, wrappers already released
	// through ReleaseTunnel). The observer owns the packet.
	OnDuplicate func(pkt *inet.Packet)
	// OnHandoffDone fires after each completed handoff (attach + release
	// signalling sent).
	OnHandoffDone func(rec HandoffRecord)
	// OnControl observes control messages the host sends.
	OnControl func(kind fho.Kind)
}

// NewMobileHost binds a handover engine to a wireless station. Call Attach
// to place the host on its initial access point before running.
func NewMobileHost(engine *sim.Engine, station *wireless.Station,
	rcoa, mapAddr inet.Addr, cfg MHConfig) *MobileHost {
	cfg.applyDefaults()
	mh := &MobileHost{
		engine:   engine,
		station:  station,
		cfg:      cfg,
		rcoa:     rcoa,
		mapAddr:  mapAddr,
		heardAPs: make(map[string]*wireless.AccessPoint),
	}
	station.OnRA = mh.handleRA
	station.OnPacket = mh.handlePacket
	station.OnLinkUp = mh.handleLinkUp
	mh.auth = fho.NewAuthenticator(cfg.AuthKey)
	mh.solicitT = sim.NewTimer(engine, mh.solicitRetry)
	mh.fbuT = sim.NewTimer(engine, mh.retryFBU)
	mh.relT = sim.NewTimer(engine, mh.retryRelease)
	mh.buRetry = sim.NewTimer(engine, mh.retryBindingUpdate)
	mh.buRefresh = sim.NewTimer(engine, mh.refreshBinding)
	return mh
}

// Station returns the wireless NIC.
func (mh *MobileHost) Station() *wireless.Station { return mh.station }

// LCoA returns the current on-link care-of address.
func (mh *MobileHost) LCoA() inet.Addr { return mh.lcoa }

// RCoA returns the regional care-of address.
func (mh *MobileHost) RCoA() inet.Addr { return mh.rcoa }

// Handoffs returns the completed handoff records.
func (mh *MobileHost) Handoffs() []HandoffRecord { return mh.handoffs }

// SignalingFailures counts handover signaling exchanges the host gave up
// on after exhausting their retransmission budget: a solicitation whose
// PrRtAdv never came (the host then degrades to the reactive path) or an
// attach announcement that was never implicitly acknowledged (the host is
// blackholed until its next movement).
func (mh *MobileHost) SignalingFailures() uint64 { return mh.signalingFailures }

// SetAuthKey replaces the host's authentication key; nil disables
// signing.
func (mh *MobileHost) SetAuthKey(key []byte) { mh.auth = fho.NewAuthenticator(key) }

// Attach places the host on its initial access point, forming an LCoA on
// the router's network. The caller is responsible for the corresponding
// AttachResident on the access router and the initial MAP binding.
func (mh *MobileHost) Attach(ap *wireless.AccessPoint, arAddr inet.Addr, arNet inet.NetID) {
	mh.lcoa = inet.Addr{Net: arNet, Host: mh.cfg.HostID}
	mh.arAddr = arAddr
	mh.arNet = arNet
	mh.station.AddAddr(mh.lcoa)
	mh.station.Associate(ap)
	mh.state = mhIdle
}

// --- movement detection ---

// handleRA implements the L2 source trigger: hearing a beacon from a
// different access point while in the overlap area starts an anticipated
// handover toward it. A holdoff after each attachment keeps the old AP's
// still-audible beacons from bouncing the host straight back. If the
// current AP no longer covers the host (the anticipation window was
// missed), the host falls back to an unanticipated link switch.
func (mh *MobileHost) handleRA(adv wireless.Advertisement) {
	if adv.AP != nil {
		mh.heardAPs[adv.AP.Name()] = adv.AP
	}
	if mh.state != mhIdle || adv.AP == nil {
		return
	}
	cur := mh.station.AP()
	if cur == nil || adv.AP == cur {
		return
	}
	now := mh.engine.Now()
	if now-mh.lastAttach < mh.cfg.TriggerHoldoff {
		return
	}
	pos := mh.station.Pos(now)
	if !cur.Covers(pos) {
		mh.startUnanticipatedHandoff(adv)
		return
	}
	// The L2 source trigger is a signal-strength comparison: hand off only
	// toward an AP whose received power beats the current one by the
	// hysteresis margin, so a host between two cells does not oscillate.
	if adv.AP.RSSI(pos) <= cur.RSSI(pos)+mh.cfg.HysteresisDB {
		return
	}
	if mh.cfg.Mobility == MobilityPlainMIP {
		// Plain Mobile IP never anticipates: switch, then register.
		mh.startUnanticipatedHandoff(adv)
		return
	}
	mh.startHandoff(adv)
}

// startUnanticipatedHandoff switches links immediately; the fast-handover
// signalling happens from the new link (the protocol's no-anticipation
// case). Packets in flight during the blackout are lost.
func (mh *MobileHost) startUnanticipatedHandoff(adv wireless.Advertisement) {
	mh.cancelRetries()
	mh.state = mhSwitching
	mh.target = adv
	mh.unanticipated = true
	mh.llOnly = adv.Router == mh.arAddr
	mh.narAddr = adv.Router
	mh.ncoa = inet.Addr{Net: adv.Net, Host: mh.cfg.HostID}
	mh.prevAR = mh.arAddr
	now := mh.engine.Now()
	mh.current = HandoffRecord{Triggered: now, Detached: now, LinkLayerOnly: mh.llOnly}
	mh.station.SwitchTo(adv.AP)
}

// startHandoff sends RtSolPr+BI toward the current access router.
func (mh *MobileHost) startHandoff(adv wireless.Advertisement) {
	mh.cancelRetries()
	mh.state = mhSoliciting
	mh.target = adv
	mh.unanticipated = false
	mh.current = HandoffRecord{Triggered: mh.engine.Now(), Anticipated: true}
	msg := &fho.RtSolPr{MH: mh.lcoa, TargetAP: adv.AP.Name()}
	if mh.cfg.BufferRequest > 0 && mh.cfg.Scheme != SchemeFHNoBuffer {
		msg.BI = &fho.BufferInit{
			Size:     uint16(mh.cfg.BufferRequest),
			Start:    mh.engine.Now() + mh.cfg.StartOffset,
			Lifetime: mh.cfg.BufferLifetime,
		}
	}
	if mh.auth != nil {
		mh.auth.SignRtSolPr(msg)
	}
	mh.sendControl(mh.arAddr, msg)
	mh.armSolicitRetry(msg)
}

// armSolicitRetry records a sent RtSolPr and starts its retransmission
// timer awaiting the PrRtAdv.
func (mh *MobileHost) armSolicitRetry(msg *fho.RtSolPr) {
	mh.lastSolicit = msg
	mh.solTries = 1
	mh.solicitT.Reset(mh.cfg.RetransmitInterval)
}

// solicitRetry retransmits an unanswered RtSolPr with exponential backoff,
// leaning on the access router's idempotent duplicate handling. When the
// try budget exhausts, a shadow-buffering request is abandoned (the caller
// can retry), while a handover degrades to the reactive no-anticipation
// path instead of hanging on signaling that will never complete.
func (mh *MobileHost) solicitRetry() {
	if mh.state != mhSoliciting && mh.state != mhShadowRequest {
		return
	}
	if mh.solTries >= mh.cfg.MaxSignalTries {
		if mh.state == mhShadowRequest {
			mh.state = mhIdle
			return
		}
		mh.fallbackToReactive()
		return
	}
	mh.solTries++
	mh.sendControl(mh.arAddr, mh.lastSolicit)
	mh.solicitT.Reset(mh.cfg.RetransmitInterval << (mh.solTries - 1))
}

// fallbackToReactive abandons an anticipated handover whose signaling
// exhausted its retries and switches links immediately — the protocol's
// no-anticipation case — so the handoff still completes, just without
// buffering.
func (mh *MobileHost) fallbackToReactive() {
	mh.signalingFailures++
	if mh.target.AP == nil {
		mh.state = mhIdle
		return
	}
	mh.startUnanticipatedHandoff(mh.target)
}

// cancelRetries stops the per-handoff retransmission timers when a new
// movement supersedes whatever exchange they were driving.
func (mh *MobileHost) cancelRetries() {
	mh.solicitT.Stop()
	mh.fbuT.Stop()
	mh.fbuPending = false
	mh.relT.Stop()
	mh.relPending = false
}

// CancelHandoff aborts an in-progress handover before the link switch by
// sending an RtSolPr whose BI carries zero start time and lifetime
// (§3.2.2.1: "the mobile host can cancel the handoff process"). The
// current access router releases its session immediately; a NAR-side
// reservation, if already made, lapses with its lifetime. It reports
// whether there was a handover to cancel.
func (mh *MobileHost) CancelHandoff() bool {
	if mh.state != mhSoliciting && mh.state != mhReady {
		return false
	}
	mh.solicitT.Stop()
	mh.state = mhIdle
	cancel := &fho.RtSolPr{
		MH:       mh.lcoa,
		TargetAP: mh.target.AP.Name(),
		BI:       &fho.BufferInit{},
	}
	if mh.auth != nil {
		mh.auth.SignRtSolPr(cancel)
	}
	mh.sendControl(mh.arAddr, cancel)
	return true
}

// --- control plane ---

// handlePacket receives every frame the station accepts.
func (mh *MobileHost) handlePacket(pkt *inet.Packet) {
	if mh.relPending && pkt.Dst == mh.lcoa {
		// Implicit release acknowledgment: a packet addressed to the new
		// care-of address proves the FNA-installed host route exists at the
		// new router (without it the router has no route and drops).
		mh.relPending = false
		mh.relT.Stop()
	}
	inner := pkt.Innermost()
	if inner != pkt && mh.ReleaseTunnel != nil {
		// The wrappers are discarded here either way; let the owner
		// recycle them.
		mh.ReleaseTunnel(pkt, inner)
	}
	if inner.Proto == inet.ProtoControl {
		switch msg := inner.Payload.(type) {
		case *fho.PrRtAdv:
			mh.handlePrRtAdv(msg)
		case *fho.FBAck:
			// Redirection already runs at the PAR; the ack just stops the
			// FBU retransmissions.
			mh.fbuPending = false
			mh.fbuT.Stop()
		case *mip.BindingAck:
			if msg.Seq == mh.buSeq {
				mh.buPending = false
				mh.buRetry.Stop()
			}
		}
		return
	}
	if mh.cfg.Scheme == SchemeSafetyNet && inner.Flow != 0 && !mh.observeSeq(inner.Flow, inner.Seq) {
		// Redundant bicast copy: the other leg already delivered it.
		if mh.OnDuplicate != nil {
			mh.OnDuplicate(inner)
		}
		return
	}
	if mh.OnDeliver != nil {
		mh.OnDeliver(inner)
	}
}

// flowDedup is one flow's SafetyNet receive window.
type flowDedup struct {
	flow inet.FlowID
	win  dedupWindow
}

// dedupWindow is an anti-replay-style sliding sequence window: a 64-deep
// bitmask below the highest sequence seen, plus the cumulative
// contiguity frontier the selective-delivery report is built from.
//
// Sequence numbers are compared with RFC 1982-style serial arithmetic
// (seqNewer), so the window keeps working when a flow's 32-bit sequence
// space wraps past 2^32: "newer" means within the forward half-space.
// A regression deeper than the 64-entry mask (including a flow restart at
// seq 0 against a frontier far from the wrap point) is conservatively
// treated as already seen — stale state must never resurrect packets, and
// recycled windows are zeroed instead (see AccessRouter.freeSession).
type dedupWindow struct {
	seen   bool
	maxSeq uint32
	// mask bit i records whether maxSeq-i was received.
	mask uint64
	// nextContig is the lowest sequence number not yet known-delivered:
	// every seq serially below it was received, so the report can safely
	// ack nextContig-1 and nothing above.
	nextContig uint32
	// acked records whether the frontier ever moved. It distinguishes the
	// empty frontier (nextContig still at its zero start) from a frontier
	// that advanced all the way around the sequence space back to 0.
	acked bool
}

// seqNewer reports whether a is serially newer than b: a is within the
// forward half of the 32-bit sequence space relative to b. This is the
// RFC 1982 comparison specialised to uint32, correct across wraparound
// for any real flow (in-flight reordering is bounded by the bicast hold
// window, far inside the 2^31 half-space).
func seqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// observe records one received sequence number and reports whether it is
// fresh (first delivery). Sequences older than the 64-entry window are
// conservatively treated as already seen — with bicast depth bounded by
// the NAR hold window, a genuinely-first copy cannot lag that far.
func (w *dedupWindow) observe(seq uint32) bool {
	if !w.seen {
		w.seen = true
		w.maxSeq = seq
		w.mask = 1
		w.advance()
		return true
	}
	if seqNewer(seq, w.maxSeq) {
		shift := seq - w.maxSeq
		if shift >= 64 {
			w.mask = 1
		} else {
			w.mask = w.mask<<shift | 1
		}
		w.maxSeq = seq
		w.advance()
		return true
	}
	off := w.maxSeq - seq
	if off >= 64 {
		return false
	}
	if w.mask&(1<<off) != 0 {
		return false
	}
	w.mask |= 1 << off
	w.advance()
	return true
}

// advance pushes the contiguity frontier over every newly filled bit.
func (w *dedupWindow) advance() {
	for !seqNewer(w.nextContig, w.maxSeq) {
		off := w.maxSeq - w.nextContig
		if off >= 64 || w.mask&(1<<off) == 0 {
			return
		}
		w.nextContig++
		w.acked = true
	}
}

// observeSeq records a delivery in the flow's window, creating it on
// first contact, and reports whether the packet is fresh.
func (mh *MobileHost) observeSeq(flow inet.FlowID, seq uint32) bool {
	return observeFlowSeq(&mh.flowSeen, flow, seq)
}

// observeFlowSeq records one sequence observation in the flow's window
// within set, creating the window on first contact, and reports whether
// the sequence is fresh. Shared between the host's receive dedup and the
// NAR's hold-window dedup (which must park each packet at most once even
// though the PAR-redirected primary and the anchor's bicast duplicate
// both arrive).
func observeFlowSeq(set *[]flowDedup, flow inet.FlowID, seq uint32) bool {
	s := *set
	for i := range s {
		if s[i].flow == flow {
			return s[i].win.observe(seq)
		}
	}
	*set = append(s, flowDedup{flow: flow})
	s = *set
	return s[len(s)-1].win.observe(seq)
}

// buildReport assembles the selective-delivery report: one cumulative ack
// per flow with a non-empty contiguous prefix. The NAR treats anything
// the report does not cover as undelivered, so a stalled frontier (a
// genuine pre-handoff loss) only costs redundant forwarding.
func (mh *MobileHost) buildReport() []fho.FlowSeq {
	var report []fho.FlowSeq
	for i := range mh.flowSeen {
		f := &mh.flowSeen[i]
		if !f.win.acked {
			continue
		}
		// nextContig-1 is correct across wraparound too: a frontier that
		// advanced all the way back to 0 acks 2^32-1, which reportCovers
		// compares serially.
		report = append(report, fho.FlowSeq{Flow: uint32(f.flow), Ack: f.win.nextContig - 1})
	}
	return report
}

// RequestLinkBuffering asks the current access router to start buffering
// this host's packets without any handoff — §3.3: a host "can also buffer
// packets at its access router when poor connection quality on a wireless
// link is detected". Packets queue at the router until
// ReleaseLinkBuffering. It reports whether the request was sent (the host
// must be idle and attached, with a buffer request configured).
func (mh *MobileHost) RequestLinkBuffering() bool {
	if mh.state != mhIdle || mh.station.AP() == nil || mh.cfg.BufferRequest <= 0 {
		return false
	}
	mh.state = mhShadowRequest
	msg := &fho.RtSolPr{
		MH:       mh.lcoa,
		TargetAP: mh.station.AP().Name(), // our own AP: a link-layer session
		BI: &fho.BufferInit{
			Size:     uint16(mh.cfg.BufferRequest),
			Start:    mh.engine.Now() + mh.cfg.StartOffset,
			Lifetime: mh.cfg.BufferLifetime,
		},
	}
	if mh.auth != nil {
		mh.auth.SignRtSolPr(msg)
	}
	mh.sendControl(mh.arAddr, msg)
	mh.armSolicitRetry(msg)
	return true
}

// ReleaseLinkBuffering asks the router to forward everything it buffered
// since RequestLinkBuffering. It reports whether there was a shadow
// session to release.
func (mh *MobileHost) ReleaseLinkBuffering() bool {
	if mh.state != mhShadowBuffering {
		return false
	}
	mh.state = mhIdle
	mh.sendControl(mh.arAddr, &fho.BF{PCoA: mh.lcoa})
	return true
}

// handlePrRtAdv completes anticipation: record the negotiation, send the
// FBU, and schedule the L2 switch.
func (mh *MobileHost) handlePrRtAdv(msg *fho.PrRtAdv) {
	if mh.state == mhShadowRequest {
		mh.solicitT.Stop()
		if !msg.LinkLayerOnly || !msg.PARGranted {
			mh.state = mhIdle // refused: no space, or misrouted request
			return
		}
		mh.state = mhShadowBuffering
		fbu := &fho.FBU{PCoA: mh.lcoa, NCoA: mh.lcoa}
		if mh.auth != nil {
			mh.auth.SignFBU(fbu)
		}
		mh.sendControl(mh.arAddr, fbu)
		mh.armFBURetry(mh.arAddr, fbu)
		return
	}
	if mh.state == mhIdle && msg.TargetAP != "" && !msg.NCoA.IsUnspecified() {
		// Unsolicited advertisement: a network-initiated handover. Accept
		// it if the named access point has been heard recently.
		ap, ok := mh.heardAPs[msg.TargetAP]
		if !ok {
			return
		}
		mh.state = mhSoliciting // fall through to the common path below
		mh.target = wireless.Advertisement{AP: ap}
		mh.unanticipated = false
		mh.current = HandoffRecord{Triggered: mh.engine.Now(), Anticipated: true}
	}
	if mh.state != mhSoliciting {
		return
	}
	if msg.NCoA.IsUnspecified() && !msg.LinkLayerOnly {
		// Refused (unknown target): abandon.
		mh.state = mhIdle
		mh.solicitT.Stop()
		return
	}
	mh.solicitT.Stop()
	mh.state = mhReady
	mh.current.Advertised = mh.engine.Now()
	mh.llOnly = msg.LinkLayerOnly
	mh.ncoa = msg.NCoA
	mh.narAddr = msg.NAR
	mh.current.NARGranted = msg.NARGranted
	mh.current.PARGranted = msg.PARGranted
	mh.current.LinkLayerOnly = msg.LinkLayerOnly
	mh.prevAR = mh.arAddr

	fbu := &fho.FBU{PCoA: mh.lcoa, NCoA: mh.ncoa}
	if mh.auth != nil {
		mh.auth.SignFBU(fbu)
	}
	mh.sendControl(mh.arAddr, fbu)
	mh.armFBURetry(mh.arAddr, fbu)
	if mh.cfg.Scheme == SchemeSafetyNet && !msg.LinkLayerOnly && !mh.mapAddr.IsUnspecified() {
		// Ask the anchor to bicast toward the prospective NCoA for the
		// handoff's duration. Best-effort, single send: a lost request
		// degrades this handoff to the unprotected fast-handover path (the
		// loss sweep makes that visible); it never causes extra loss.
		mh.station.Send(&inet.Packet{
			Src:     mh.lcoa,
			Dst:     mh.mapAddr,
			Proto:   inet.ProtoControl,
			Size:    mip.BicastRequestSize,
			Created: mh.engine.Now(),
			Payload: &mip.BicastRequest{
				Key:      mh.rcoa,
				NCoA:     mh.ncoa,
				Lifetime: mh.cfg.BufferLifetime,
			},
		})
	}
	target := mh.target.AP
	mh.engine.Schedule(mh.cfg.FBUGuard, func() {
		if mh.state != mhReady {
			return
		}
		mh.state = mhSwitching
		mh.current.Detached = mh.engine.Now()
		// The old link is gone: the pre-switch FBU retries end here (the
		// PAR's BI start time is the backstop for a lost FBU).
		mh.fbuPending = false
		mh.fbuT.Stop()
		mh.station.SwitchTo(target)
	})
}

// armFBURetry records an FBU awaiting its FBAck and starts the
// retransmission timer.
func (mh *MobileHost) armFBURetry(dst inet.Addr, fbu *fho.FBU) {
	mh.fbuPending = true
	mh.fbuTries = 1
	mh.lastFBU = fbu
	mh.fbuDst = dst
	mh.fbuT.Reset(mh.cfg.RetransmitInterval)
}

// retryFBU retransmits an FBU still awaiting its FBAck with exponential
// backoff, leaning on the PAR's idempotent duplicate handling. Exhaustion
// is silent: a lost FBU only costs buffering (the BI start time and the
// session lifetime are the backstops), it does not stall the handoff.
func (mh *MobileHost) retryFBU() {
	if !mh.fbuPending || mh.state == mhSwitching {
		return
	}
	if mh.fbuTries >= mh.cfg.MaxSignalTries {
		mh.fbuPending = false
		return
	}
	mh.fbuTries++
	mh.sendControl(mh.fbuDst, mh.lastFBU)
	mh.fbuT.Reset(mh.cfg.RetransmitInterval << (mh.fbuTries - 1))
}

// armReleaseRetry records an attach-time release message (FNA or
// link-layer BF) and starts its blind retransmission timer. Only armed
// with RetransmitUnacked: the exchange has no explicit acknowledgment, so
// retransmitting it on loss-free links would send pure duplicates.
func (mh *MobileHost) armReleaseRetry(msg fho.Message) {
	if !mh.cfg.RetransmitUnacked {
		return
	}
	mh.relPending = true
	mh.relTries = 1
	mh.lastRelease = msg
	mh.relT.Reset(mh.cfg.RetransmitInterval)
}

// retryRelease retransmits the attach announcement until a packet arrives
// at the new care-of address (the implicit acknowledgment) or the try
// budget exhausts. A lost FNA is otherwise a permanent blackhole — the new
// router never learns a route for the NCoA — so exhaustion here counts as
// a signaling failure.
func (mh *MobileHost) retryRelease() {
	if !mh.relPending {
		return
	}
	if mh.relTries >= mh.cfg.MaxSignalTries {
		mh.relPending = false
		mh.signalingFailures++
		return
	}
	mh.relTries++
	mh.sendControl(mh.arAddr, mh.lastRelease)
	mh.relT.Reset(mh.cfg.RetransmitInterval << (mh.relTries - 1))
}

// handleLinkUp completes the handoff on the new link: FNA+BF to the NAR
// (or BF to the same router), binding update to the MAP. On the
// unanticipated path the FBU is also sent now, from the new link.
func (mh *MobileHost) handleLinkUp(ap *wireless.AccessPoint) {
	mh.lastAttach = mh.engine.Now()
	if mh.state != mhSwitching {
		return // initial attachment
	}
	mh.current.Attached = mh.engine.Now()
	if mh.llOnly && mh.unanticipated {
		// Same router, link lost before signalling: nothing was buffered;
		// just carry on.
		mh.finishHandoff()
		return
	}
	if mh.llOnly {
		bf := &fho.BF{PCoA: mh.lcoa}
		mh.sendControl(mh.arAddr, bf)
		mh.armReleaseRetry(bf)
		mh.finishHandoff()
		return
	}

	pcoa := mh.lcoa
	mh.station.AddAddr(mh.ncoa)
	mh.lcoa = mh.ncoa
	mh.arAddr = mh.narAddr
	mh.arNet = mh.ncoa.Net
	if mh.cfg.Mobility == MobilityPlainMIP {
		// Plain Mobile IP: announce the new address on the link (standard
		// neighbour discovery; the FNA without a session doubles as it),
		// then register with the anchor. Nothing was buffered anywhere.
		fna := &fho.FNA{NCoA: mh.ncoa, PCoA: mh.ncoa}
		mh.sendControl(mh.arAddr, fna)
		mh.armReleaseRetry(fna)
		mh.registerWithMAP()
		mh.engine.Schedule(mh.cfg.PCoAHoldTime, func() { mh.station.RemoveAddr(pcoa) })
		mh.finishHandoff()
		return
	}
	if mh.unanticipated {
		// No-anticipation: FBU reaches the PAR through the new link. Its
		// FBAck cannot reach the departed address, so retransmission (with
		// RetransmitUnacked) is blind and bounded.
		fbu := &fho.FBU{PCoA: pcoa, NCoA: mh.ncoa}
		if mh.auth != nil {
			mh.auth.SignFBU(fbu)
		}
		mh.sendControl(mh.prevAR, fbu)
		if mh.cfg.RetransmitUnacked {
			mh.armFBURetry(mh.prevAR, fbu)
		}
	}
	wantRelease := mh.cfg.BufferRequest > 0 && mh.cfg.Scheme != SchemeFHNoBuffer
	fna := &fho.FNA{NCoA: mh.ncoa, PCoA: pcoa, BufferForward: wantRelease}
	if mh.cfg.Scheme == SchemeSafetyNet {
		// Piggyback the selective-delivery report so the NAR forwards only
		// the gap from its hold window. The FNA rides the existing
		// RetransmitUnacked release machinery; if every copy is lost the
		// NAR's session lifetime discards the held duplicates.
		fna.Report = mh.buildReport()
	}
	if mh.auth != nil {
		mh.auth.SignFNA(fna)
	}
	mh.sendControl(mh.arAddr, fna)
	mh.armReleaseRetry(fna)
	mh.registerWithMAP()
	// Keep accepting the PCoA while buffered packets drain.
	mh.engine.Schedule(mh.cfg.PCoAHoldTime, func() { mh.station.RemoveAddr(pcoa) })
	mh.finishHandoff()
}

func (mh *MobileHost) finishHandoff() {
	mh.state = mhIdle
	mh.unanticipated = false
	mh.current.Completed = mh.engine.Now()
	mh.handoffs = append(mh.handoffs, mh.current)
	if mh.OnHandoffDone != nil {
		mh.OnHandoffDone(mh.current)
	}
}

// DefaultBURetryInterval spaces binding-update retransmissions.
const DefaultBURetryInterval = 1 * sim.Second

// maxBUTries bounds binding-update retransmissions per handoff.
const maxBUTries = 5

// registerWithMAP sends the Mobile IP binding update for the new LCoA and
// arms the retransmission timer; a lost update would otherwise blackhole
// the host until the next handoff. It also (re)arms the periodic refresh
// that keeps the binding alive short of its lifetime.
func (mh *MobileHost) registerWithMAP() {
	if mh.mapAddr.IsUnspecified() {
		return
	}
	mh.buSeq++
	mh.buPending = true
	mh.buTries = 1
	mh.buRetry.Reset(DefaultBURetryInterval)
	mh.buRefresh.Reset(mh.cfg.RegistrationLifetime * 3 / 4)
	mh.sendBindingUpdate()
}

// StartRegistration registers the host's current address with its anchor
// and keeps the binding refreshed. Scenario builders call it once after
// the initial attachment (the anchor's initial binding is installed
// directly, but refreshes must come from the host).
func (mh *MobileHost) StartRegistration() { mh.registerWithMAP() }

// refreshBinding re-registers before the binding lifetime lapses, as
// Mobile IP requires of stationary hosts too.
func (mh *MobileHost) refreshBinding() {
	if mh.state == mhSwitching {
		// Mid-blackout: the next attachment re-registers anyway.
		return
	}
	mh.registerWithMAP()
}

// retryBindingUpdate retransmits an unacknowledged binding update.
func (mh *MobileHost) retryBindingUpdate() {
	if !mh.buPending || mh.buTries >= maxBUTries {
		return
	}
	mh.buTries++
	mh.buRetry.Reset(DefaultBURetryInterval)
	mh.sendBindingUpdate()
}

func (mh *MobileHost) sendBindingUpdate() {
	mh.station.Send(&inet.Packet{
		Src:     mh.lcoa,
		Dst:     mh.mapAddr,
		Proto:   inet.ProtoControl,
		Size:    mip.BindingUpdateSize,
		Created: mh.engine.Now(),
		Payload: &mip.BindingUpdate{
			Key:      mh.rcoa,
			CoA:      mh.lcoa,
			Lifetime: mh.cfg.RegistrationLifetime,
			Seq:      mh.buSeq,
		},
	})
}

// sendControl transmits a fast-handover control message uplink.
func (mh *MobileHost) sendControl(dst inet.Addr, msg fho.Message) {
	if mh.OnControl != nil {
		mh.OnControl(msg.Kind())
	}
	mh.station.Send(&inet.Packet{
		Src:     mh.lcoa,
		Dst:     dst,
		Proto:   inet.ProtoControl,
		Size:    fho.WireSize(msg),
		Created: mh.engine.Now(),
		Payload: msg,
	})
}

// SendData transmits an application packet uplink (used by traffic sources
// running on the host).
func (mh *MobileHost) SendData(pkt *inet.Packet) { mh.station.Send(pkt) }

// Shutdown deregisters the host from its anchor (a zero-lifetime binding
// update), stops all timers, and detaches from the radio. The host can be
// re-attached later with Attach.
func (mh *MobileHost) Shutdown() {
	mh.cancelRetries()
	mh.buRetry.Stop()
	mh.buRefresh.Stop()
	mh.buPending = false
	if !mh.mapAddr.IsUnspecified() && mh.station.CanReceive() {
		mh.buSeq++
		mh.station.Send(&inet.Packet{
			Src:     mh.lcoa,
			Dst:     mh.mapAddr,
			Proto:   inet.ProtoControl,
			Size:    mip.BindingUpdateSize,
			Created: mh.engine.Now(),
			Payload: &mip.BindingUpdate{Key: mh.rcoa, Seq: mh.buSeq}, // zero lifetime
		})
	}
	mh.state = mhIdle
	mh.station.Detach()
}
