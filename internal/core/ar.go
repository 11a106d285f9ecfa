package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/fho"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ARConfig configures an access router's handover engine.
type ARConfig struct {
	// Scheme selects the buffering behaviour. Both access routers of a
	// deployment must agree on it.
	Scheme Scheme
	// PoolSize is the router's total handover buffer space in packets.
	PoolSize int
	// Alpha is the α threshold for best-effort admission at the PAR.
	Alpha int
	// GraceDelay is how long a released NAR session lingers (still
	// forwarding stragglers from the PAR drain) before its reservation is
	// returned. Zero selects DefaultGraceDelay.
	GraceDelay sim.Time
	// DrainInterval optionally paces buffer drains (time between released
	// packets). Zero drains at line rate.
	DrainInterval sim.Time
	// PartialGrants enables the precise-allocation extension (the thesis'
	// first future-work item): a router grants whatever buffer space
	// remains instead of refusing requests it cannot cover in full.
	PartialGrants bool
	// AuthKey, when non-empty, requires HMAC authentication on handover
	// messages (the thesis' third future-work item): arriving HIs and
	// FNAs must carry a valid tag under the same key, and outgoing HIs
	// are signed. Unauthenticated handovers are refused.
	AuthKey []byte
	// RetransmitInterval is the initial retransmission timeout for
	// signaling the router originates and expects an answer to (the HI
	// awaiting its HAck). It doubles on every retry. Zero selects
	// DefaultRetransmitInterval.
	RetransmitInterval sim.Time
	// MaxSignalTries bounds the total transmissions per signaling exchange
	// (the first send plus retries). Zero selects DefaultMaxSignalTries.
	MaxSignalTries int
	// RetransmitUnacked additionally retransmits the protocol's
	// unacknowledged release message (the NAR→PAR BF relay) on the same
	// backoff schedule, relying on the PAR's idempotent duplicate
	// handling. Off by default: duplicates of unacknowledged messages are
	// sent even on loss-free links, so only loss-injected deployments
	// should pay for them.
	RetransmitUnacked bool
	// BicastWindow sizes the NAR-side hold window for SafetyNet bicast
	// copies, in packets. The window deliberately lives outside the
	// handover pool (the scheme's whole point is claiming no pool space);
	// overflow degrades to forwarding the evicted oldest copy onward
	// immediately instead of holding it. Zero selects
	// DefaultBicastWindow. Ignored by the buffering schemes.
	BicastWindow int
	// Alloc, when set, supplies pooled packets for the tunnel wrappers the
	// router emits (redirect, drain and reverse tunnels), so tunnelling
	// stays allocation-free. Nil falls back to heap allocation.
	Alloc func() *inet.Packet
}

// Validate reports configuration errors that would silently disable parts
// of the scheme: an α threshold at or above the whole pool means no grant
// can ever admit a best-effort packet (buffer.NewChecked makes the same
// check per buffer).
func (cfg ARConfig) Validate() error {
	if cfg.PoolSize < 0 {
		return fmt.Errorf("core: negative pool size %d", cfg.PoolSize)
	}
	if cfg.Alpha < 0 {
		return fmt.Errorf("core: negative alpha %d", cfg.Alpha)
	}
	if cfg.PoolSize > 0 && cfg.Alpha >= cfg.PoolSize {
		return fmt.Errorf("core: alpha %d >= pool size %d would refuse every best-effort packet", cfg.Alpha, cfg.PoolSize)
	}
	return nil
}

// DefaultGraceDelay is the default NAR session linger after release.
const DefaultGraceDelay = 1 * sim.Second

// DefaultRetransmitInterval is the initial signaling retransmission
// timeout. It must exceed the worst-case signaling round trip of the
// deployment (the thesis' Figure 4.10 runs a 50 ms inter-router link, so
// the RtSolPr→PrRtAdv exchange can take >100 ms).
const DefaultRetransmitInterval = 150 * sim.Millisecond

// DefaultMaxSignalTries is the default transmission bound per signaling
// exchange: the first send plus two retries, backed off 1×, 2×, 4×.
const DefaultMaxSignalTries = 3

// DefaultBicastWindow is the default SafetyNet NAR hold window: deep
// enough for a full blackout's worth of bicast copies (primary and
// duplicate) at the thesis' traffic rates without touching the pool.
const DefaultBicastWindow = 64

// DefaultSessionLifetime bounds sessions whose host requested no buffering
// (no BI, hence no explicit lifetime): without it, a plain fast-handover
// session whose BF never comes would leak forever.
const DefaultSessionLifetime = 10 * sim.Second

// Drop locations reported through OnDrop.
const (
	DropAtPAR      = "par-buffer"
	DropAtNAR      = "nar-buffer"
	DropPolicy     = "par-policy"
	DropOnLifetime = "lifetime"
)

type role int

const (
	rolePAR role = iota + 1
	roleNAR
	roleLinkLayer
)

func (r role) String() string {
	switch r {
	case rolePAR:
		return "par"
	case roleNAR:
		return "nar"
	case roleLinkLayer:
		return "link-layer"
	default:
		return "role(?)"
	}
}

// session is one in-flight handoff at this access router, keyed by the
// mobile host's previous care-of address.
type session struct {
	role role
	pcoa inet.Addr
	ncoa inet.Addr
	// targetAP is the access point the host is moving to, echoed in the
	// PrRtAdv so unsolicited (network-initiated) handovers name their
	// target.
	targetAP string
	// peer is the other access router (zero for link-layer-only handoffs).
	peer inet.Addr
	// avail is the negotiated Table 3.2 availability.
	avail buffer.Availability
	// granted is the local pool reservation in packets.
	granted int
	// buf is the local handover buffer (nil when no space was granted).
	buf *buffer.Buffer

	redirecting bool // PAR/link-layer: intercepting the host's packets
	narFull     bool // PAR: NAR reported buffer full (Case 1.b)
	narGrant    int  // PAR: NAR's granted buffer size, from the BA option
	sentToNAR   int  // PAR: bufferable packets forwarded to the NAR so far
	fullSent    bool // NAR: BufferFull already sent
	released    bool // NAR: FNA received and buffer drained

	// holdSeen dedups the SafetyNet hold window: during the blackout each
	// packet reaches the NAR twice (PAR-redirected primary plus the
	// anchor's bicast duplicate), and parking both would waste half the
	// window. The second copy is discarded on arrival instead.
	holdSeen []flowDedup

	startTimer *sim.Timer
	lifeTimer  *sim.Timer
	// graceTimer defers the NAR reservation return after release.
	graceTimer *sim.Timer

	// PAR: HI retransmission until the HAck arrives or tries exhaust.
	hiTimer *sim.Timer
	hiTries int
	lastHI  *fho.HI
	// NAR: bounded blind retransmission of the unacknowledged BF relay
	// (only with RetransmitUnacked).
	bfTimer *sim.Timer
	bfTries int
}

// AccessRouter is the handover protocol engine wrapped around a forwarding
// router. One instance plays the PAR role for hosts leaving and the NAR
// role for hosts arriving, concurrently.
type AccessRouter struct {
	engine *sim.Engine
	router *netsim.Router
	net    inet.NetID
	cfg    ARConfig
	pool   *buffer.Pool
	dir    *Directory

	apIfaces  map[string]*netsim.Iface
	apByIface map[*netsim.Iface]string
	defaultAP *netsim.Iface

	sessions map[inet.Addr]*session
	// ncoaIndex finds the NAR session owning a new care-of address, so the
	// MAP's bicast duplicates (tunnelled straight to the NCoA) can be
	// parked in the session's hold window before the host attaches.
	// Populated only under SchemeSafetyNet.
	ncoaIndex map[inet.Addr]*session
	auth      *fho.Authenticator

	// Free lists keep the steady-state handoff path allocation-free:
	// session objects (with their pre-bound timers), their buffer slabs,
	// and paced-drain jobs are all recycled.
	sessFree  []*session
	bufFree   buffer.FreeList
	drainFree []*drainJob

	// Pool-pressure accounting for the metro-scale capacity experiment.
	poolGrants   uint64
	poolRefusals uint64
	grantLive    int
	grantPeak    int

	// fallbackRoutes bounds the stale PCoA host routes installed by the
	// no-session FNA fallback, which have no owning session to tear them
	// down.
	fallbackRoutes map[inet.Addr]*sim.Timer

	authRejects       uint64
	signalingFailures uint64

	// SafetyNet accounting: copies parked in hold windows, redundant
	// copies discarded (report-acknowledged or expired), and copies
	// forwarded onward early because the hold window overflowed. Every
	// parked packet ends up discarded, overflow-forwarded, or drained.
	bicastHeld      uint64
	bicastDiscarded uint64
	bicastForwarded uint64

	// OnDrop observes every packet the engine drops, with the drop site
	// (DropAtPAR, DropAtNAR, DropPolicy, DropOnLifetime).
	OnDrop func(pkt *inet.Packet, where string)
	// OnBicastDiscard observes every redundant bicast copy the router
	// disposes of — a dedup event, not a loss; the observer owns the
	// packet (pool recycling).
	OnBicastDiscard func(pkt *inet.Packet)
	// OnControl observes every control message the engine sends, for
	// signaling-overhead accounting.
	OnControl func(kind fho.Kind)

	controlSent map[fho.Kind]uint64
}

// reserve claims buffer space per the configured grant policy, returning
// the granted size (zero when refused). Outcomes feed the pool-pressure
// counters: a refusal is a handoff the router could not buffer for.
func (ar *AccessRouter) reserve(n int) int {
	if n <= 0 {
		return 0
	}
	granted := 0
	if ar.cfg.PartialGrants {
		granted = ar.pool.ReservePartial(n)
	} else if ar.pool.Reserve(n) {
		granted = n
	}
	if granted <= 0 {
		ar.poolRefusals++
		return 0
	}
	ar.poolGrants++
	ar.grantLive++
	if ar.grantLive > ar.grantPeak {
		ar.grantPeak = ar.grantLive
	}
	return granted
}

// NewAccessRouter wraps router with the handover engine. It installs the
// router's Intercept and LocalDeliver hooks.
func NewAccessRouter(engine *sim.Engine, router *netsim.Router, net inet.NetID,
	dir *Directory, cfg ARConfig) *AccessRouter {
	if !cfg.Scheme.Valid() {
		panic("core: NewAccessRouter with invalid scheme")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.GraceDelay == 0 {
		cfg.GraceDelay = DefaultGraceDelay
	}
	if cfg.RetransmitInterval == 0 {
		cfg.RetransmitInterval = DefaultRetransmitInterval
	}
	if cfg.MaxSignalTries == 0 {
		cfg.MaxSignalTries = DefaultMaxSignalTries
	}
	if cfg.BicastWindow == 0 {
		cfg.BicastWindow = DefaultBicastWindow
	}
	ar := &AccessRouter{
		engine:         engine,
		router:         router,
		net:            net,
		cfg:            cfg,
		pool:           buffer.NewPool(cfg.PoolSize),
		dir:            dir,
		apIfaces:       make(map[string]*netsim.Iface),
		apByIface:      make(map[*netsim.Iface]string),
		sessions:       make(map[inet.Addr]*session),
		ncoaIndex:      make(map[inet.Addr]*session),
		fallbackRoutes: make(map[inet.Addr]*sim.Timer),
		controlSent:    make(map[fho.Kind]uint64),
	}
	ar.auth = fho.NewAuthenticator(cfg.AuthKey)
	router.Intercept = ar.intercept
	router.LocalDeliver = ar.localDeliver
	return ar
}

// Router returns the underlying forwarding element.
func (ar *AccessRouter) Router() *netsim.Router { return ar.router }

// Addr returns the router's address.
func (ar *AccessRouter) Addr() inet.Addr { return ar.router.Addr() }

// Net returns the served network prefix.
func (ar *AccessRouter) Net() inet.NetID { return ar.net }

// Pool returns the handover buffer pool.
func (ar *AccessRouter) Pool() *buffer.Pool { return ar.pool }

// ControlSent returns how many control messages of the given kind this
// router originated.
func (ar *AccessRouter) ControlSent(kind fho.Kind) uint64 { return ar.controlSent[kind] }

// Sessions returns the number of live handoff sessions.
func (ar *AccessRouter) Sessions() int { return len(ar.sessions) }

// PoolGrants counts buffer reservations the router granted.
func (ar *AccessRouter) PoolGrants() uint64 { return ar.poolGrants }

// PoolRefusals counts buffer requests the router turned away with an
// exhausted pool — each one is a handoff that proceeds unbuffered.
func (ar *AccessRouter) PoolRefusals() uint64 { return ar.poolRefusals }

// PeakGrantedSessions returns the maximum number of sessions that held a
// buffer grant simultaneously: the router's observed handoff concurrency.
func (ar *AccessRouter) PeakGrantedSessions() int { return ar.grantPeak }

// AuthRejects counts handover messages refused for failing
// authentication.
func (ar *AccessRouter) AuthRejects() uint64 { return ar.authRejects }

// BicastHeld counts bicast copies parked in SafetyNet hold windows.
func (ar *AccessRouter) BicastHeld() uint64 { return ar.bicastHeld }

// BicastDiscarded counts redundant bicast copies this router disposed of
// (report-acknowledged, or expired with their session).
func (ar *AccessRouter) BicastDiscarded() uint64 { return ar.bicastDiscarded }

// BicastForwarded counts held copies pushed onward early because the hold
// window overflowed — the degraded-to-forwarding path, never a silent drop.
func (ar *AccessRouter) BicastForwarded() uint64 { return ar.bicastForwarded }

// SignalingFailures counts acknowledged signaling exchanges this router
// gave up on after exhausting their retransmission budget (an HI whose
// HAck never came). Each one corresponds to an anticipated handover the
// router abandoned, telling the host nothing was prepared.
func (ar *AccessRouter) SignalingFailures() uint64 { return ar.signalingFailures }

// SetAuthKey replaces the router's authentication key; nil disables
// authentication.
func (ar *AccessRouter) SetAuthKey(key []byte) { ar.auth = fho.NewAuthenticator(key) }

// AddAP registers one of the router's own access points and the interface
// leading to it, and publishes it in the directory. The first AP becomes
// the default target for arriving handoffs.
func (ar *AccessRouter) AddAP(name string, iface *netsim.Iface) {
	ar.apIfaces[name] = iface
	ar.apByIface[iface] = name
	if ar.defaultAP == nil {
		ar.defaultAP = iface
	}
	ar.dir.Register(name, ARInfo{Addr: ar.router.Addr(), Net: ar.net})
}

// AttachResident installs the host route for a mobile host living on this
// router's network (initial attachment, or after a completed handoff).
func (ar *AccessRouter) AttachResident(addr inet.Addr, via *netsim.Iface) {
	ar.router.AddHostRoute(addr, via)
}

// DetachResident removes a resident host route.
func (ar *AccessRouter) DetachResident(addr inet.Addr) {
	ar.router.RemoveHostRoute(addr)
}

// --- forwarding-plane hooks ---

// intercept redirects data packets belonging to an active PAR-side session
// and reverse-tunnels uplink packets still using the previous care-of
// address at the NAR.
func (ar *AccessRouter) intercept(in *netsim.Iface, pkt *inet.Packet) bool {
	if pkt.Proto == inet.ProtoControl {
		return false // control traffic is never redirected or buffered
	}
	if s, ok := ar.sessions[pkt.Dst]; ok && s.redirecting &&
		(s.role == rolePAR || s.role == roleLinkLayer) {
		ar.redirect(s, pkt)
		return true
	}
	// SafetyNet: the MAP tunnels bicast duplicates straight to the NCoA,
	// which has no host route until the FNA arrives. Park them in the
	// session's hold window; once released, fall through to the installed
	// NCoA route (the host's dedup window absorbs any redundancy).
	if ar.cfg.Scheme == SchemeSafetyNet && pkt.Proto == inet.ProtoTunnel {
		if s, ok := ar.ncoaIndex[pkt.Dst]; ok && s.role == roleNAR && !s.released {
			ar.holdBicast(s, pkt)
			return true
		}
	}
	// Reverse tunnel: uplink from the mobile host still sourced from the
	// PCoA while attached at the NAR is tunnelled back to the PAR.
	if s, ok := ar.sessions[pkt.Src]; ok && s.role == roleNAR && !s.peer.IsUnspecified() {
		if _, fromAP := ar.apByIface[in]; fromAP {
			ar.router.Forward(pkt.Encapsulate(ar.cfg.Alloc, ar.router.Addr(), s.peer))
			return true
		}
	}
	return false
}

// localDeliver dispatches control messages and session tunnels addressed
// to the router itself.
func (ar *AccessRouter) localDeliver(in *netsim.Iface, pkt *inet.Packet) bool {
	switch msg := pkt.Payload.(type) {
	case *fho.RtSolPr:
		ar.handleRtSolPr(in, pkt, msg)
	case *fho.HI:
		ar.handleHI(in, pkt, msg)
	case *fho.HAck:
		ar.handleHAck(msg)
	case *fho.FBU:
		ar.handleFBU(msg)
	case *fho.FBAck:
		// Informational at the NAR; nothing to do.
	case *fho.FNA:
		ar.handleFNA(in, msg)
	case *fho.BF:
		ar.handleBF(in, msg)
	case *fho.BufferFull:
		ar.handleBufferFull(msg)
	default:
		if pkt.Proto == inet.ProtoTunnel {
			return ar.handleTunnel(pkt)
		}
		return false
	}
	return true
}

// handleTunnel terminates a tunnel at this router: redirected session data
// goes through the NAR buffering logic, anything else is forwarded. The
// stripped wrapper goes to the router's tunnel-exit hook, as it would had
// the router decapsulated it itself.
func (ar *AccessRouter) handleTunnel(pkt *inet.Packet) bool {
	inner := pkt.Decapsulate()
	if inner == nil {
		return true
	}
	if s, ok := ar.sessions[inner.Dst]; ok && s.role == roleNAR {
		ar.narData(s, inner)
	} else {
		ar.router.Forward(inner)
	}
	if release := ar.router.ReleaseTunnel; release != nil {
		release(pkt, inner)
	}
	return true
}

// --- handover initiation (§3.2.2.1) ---

func (ar *AccessRouter) handleRtSolPr(in *netsim.Iface, pkt *inet.Packet, msg *fho.RtSolPr) {
	if ar.auth != nil && !ar.auth.VerifyRtSolPr(msg) {
		ar.authRejects++
		return // unauthenticated solicitations are not answered
	}
	if msg.BI != nil && msg.BI.Cancelled() {
		if s, ok := ar.sessions[msg.MH]; ok {
			// The host stays on this router: release anything already
			// buffered back through the (still installed) resident route.
			s.redirecting = false
			if s.buf != nil {
				ar.drain(s.buf, inet.Addr{})
			}
			ar.closeSession(s, false)
		}
		return
	}
	if s, ok := ar.sessions[msg.MH]; ok {
		// Duplicate solicitation (retry after a lost answer): re-drive the
		// handshake idempotently instead of stalling the host.
		switch s.role {
		case roleLinkLayer:
			ar.sendControl(msg.MH, &fho.PrRtAdv{
				NAR:           ar.router.Addr(),
				NARNet:        ar.net,
				NCoA:          msg.MH,
				PARGranted:    s.avail.PAR,
				LinkLayerOnly: true,
			})
		case rolePAR:
			hi := &fho.HI{
				PCoA:        s.pcoa,
				NCoA:        s.ncoa,
				MHLinkLayer: msg.TargetAP,
				PARGranted:  s.avail.PAR,
			}
			if msg.BI != nil && ar.cfg.Scheme.WantsNARBuffer() {
				hi.BR = &fho.BufferRequest{Size: msg.BI.Size, Lifetime: msg.BI.Lifetime}
			}
			if ar.auth != nil {
				ar.auth.SignHI(hi)
			}
			ar.sendHI(s, hi)
		}
		return
	}
	if _, own := ar.apIfaces[msg.TargetAP]; own && msg.TargetAP != "" {
		ar.initLinkLayerHandoff(pkt, msg)
		return
	}
	ar.initNetworkHandoff(pkt, msg)
}

// initLinkLayerHandoff implements §3.2.2.4: the target AP belongs to this
// router, so only local buffering is set up and PrRtAdv is returned
// directly.
func (ar *AccessRouter) initLinkLayerHandoff(pkt *inet.Packet, msg *fho.RtSolPr) {
	s := ar.newSession()
	s.role, s.pcoa, s.ncoa = roleLinkLayer, msg.MH, msg.MH
	if msg.BI != nil {
		if granted := ar.reserve(int(msg.BI.Size)); granted > 0 {
			s.granted = granted
			s.buf = ar.bufFree.Get(granted, ar.cfg.Alpha)
			s.avail = buffer.Availability{PAR: true}
		}
	}
	ar.sessions[msg.MH] = s
	ar.armTimers(s, msg.BI)
	ar.sendControl(msg.MH, &fho.PrRtAdv{
		NAR:           ar.router.Addr(),
		NARNet:        ar.net,
		NCoA:          msg.MH,
		PARGranted:    s.avail.PAR,
		LinkLayerOnly: true,
	})
}

// InitiateHandover starts a network-initiated handover (the FMIPv6 path
// where the PAR "decides to send a PrRtAdv message without receiving the
// mobile host's RtSolPr message first"). The router reserves bufferPackets
// locally and at the target's router, then advertises the move to the
// host, which proceeds exactly as if it had solicited. The thesis' own
// evaluation excludes this mode ("it is not practical to monitor all
// mobile hosts"), so nothing in the reproduced figures uses it. It reports
// whether the handover was initiated (false: unknown AP, or one already in
// flight for this host).
func (ar *AccessRouter) InitiateHandover(pcoa inet.Addr, targetAP string, bufferPackets int) bool {
	if _, ok := ar.sessions[pcoa]; ok {
		return false
	}
	info, ok := ar.dir.Lookup(targetAP)
	if !ok || info.Addr == ar.router.Addr() {
		return false
	}
	var bi *fho.BufferInit
	if bufferPackets > 0 {
		bi = &fho.BufferInit{
			Size:     uint16(bufferPackets),
			Start:    ar.engine.Now() + DefaultNetworkInitStart,
			Lifetime: DefaultSessionLifetime,
		}
	}
	ar.initNetworkHandoff(nil, &fho.RtSolPr{MH: pcoa, TargetAP: targetAP, BI: bi})
	return true
}

// DefaultNetworkInitStart is the auto-redirect start offset for
// network-initiated handovers.
const DefaultNetworkInitStart = 1 * sim.Second

// initNetworkHandoff resolves the NAR, reserves local space, and sends
// HI+BR.
func (ar *AccessRouter) initNetworkHandoff(pkt *inet.Packet, msg *fho.RtSolPr) {
	info, ok := ar.dir.Lookup(msg.TargetAP)
	if !ok {
		// Unknown target: refuse by advertising nothing.
		ar.sendControl(msg.MH, &fho.PrRtAdv{})
		return
	}
	s := ar.newSession()
	s.role = rolePAR
	s.pcoa = msg.MH
	s.ncoa = inet.Addr{Net: info.Net, Host: msg.MH.Host}
	s.peer = info.Addr
	s.targetAP = msg.TargetAP
	if msg.BI != nil && ar.cfg.Scheme.WantsPARBuffer() {
		if granted := ar.reserve(int(msg.BI.Size)); granted > 0 {
			s.granted = granted
			s.buf = ar.bufFree.Get(granted, ar.cfg.Alpha)
			s.avail.PAR = true
		}
	}
	ar.sessions[msg.MH] = s
	ar.armTimers(s, msg.BI)

	hi := &fho.HI{
		PCoA:        msg.MH,
		NCoA:        s.ncoa,
		MHLinkLayer: msg.TargetAP,
		PARGranted:  s.avail.PAR,
	}
	if msg.BI != nil && ar.cfg.Scheme.WantsNARBuffer() {
		hi.BR = &fho.BufferRequest{Size: msg.BI.Size, Lifetime: msg.BI.Lifetime}
	}
	if ar.auth != nil {
		ar.auth.SignHI(hi)
	}
	ar.sendHI(s, hi)
}

// sendHI transmits an HI toward the session's peer and (re)arms its
// retransmission timer: the HI expects an HAck, and a lost exchange would
// otherwise stall the handoff until the session lifetime lapses.
func (ar *AccessRouter) sendHI(s *session, hi *fho.HI) {
	s.lastHI = hi
	s.hiTries = 1
	if s.hiTimer == nil {
		s.hiTimer = sim.NewTimer(ar.engine, func() { ar.retryHI(s) })
	}
	s.hiTimer.Reset(ar.cfg.RetransmitInterval)
	ar.sendControl(s.peer, hi)
}

// retryHI retransmits an unacknowledged HI with exponential backoff. When
// the try budget is exhausted the router abandons the anticipated handover:
// the reservation is released and the host is told nothing is prepared, so
// it degrades to the reactive (no-anticipation) path instead of waiting on
// a session that will never complete.
func (ar *AccessRouter) retryHI(s *session) {
	if cur, ok := ar.sessions[s.pcoa]; !ok || cur != s || s.lastHI == nil {
		return
	}
	if s.hiTries >= ar.cfg.MaxSignalTries {
		ar.signalingFailures++
		pcoa := s.pcoa // closeSession recycles s
		ar.closeSession(s, false)
		ar.sendControl(pcoa, &fho.PrRtAdv{})
		return
	}
	s.hiTries++
	ar.sendControl(s.peer, s.lastHI)
	s.hiTimer.Reset(ar.cfg.RetransmitInterval << (s.hiTries - 1))
}

// armTimers schedules the BI start-time auto-redirect and the buffering
// lifetime. Every session gets a lifetime timer — a BI without a positive
// lifetime (and a session without a BI) falls back to
// DefaultSessionLifetime — so sessions cannot leak.
func (ar *AccessRouter) armTimers(s *session, bi *fho.BufferInit) {
	life := DefaultSessionLifetime
	if bi != nil {
		if bi.Start > 0 {
			if s.startTimer == nil {
				s.startTimer = sim.NewTimer(ar.engine, func() {
					if !s.redirecting {
						s.redirecting = true
					}
				})
			}
			s.startTimer.ResetAt(bi.Start)
		}
		if bi.Lifetime > 0 {
			life = bi.Lifetime
		}
	}
	if s.lifeTimer == nil {
		s.lifeTimer = sim.NewTimer(ar.engine, func() { ar.expire(s) })
	}
	s.lifeTimer.Reset(life)
}

// handleHI is the NAR side of initiation: validate the NCoA, install the
// PCoA host route, reserve buffer space, acknowledge.
func (ar *AccessRouter) handleHI(in *netsim.Iface, pkt *inet.Packet, msg *fho.HI) {
	if ar.auth != nil && !ar.auth.VerifyHI(msg) {
		ar.authRejects++
		ar.sendControl(pkt.Src, &fho.HAck{Accepted: false, PCoA: msg.PCoA})
		return
	}
	if s, ok := ar.sessions[msg.PCoA]; ok && s.role == roleNAR {
		// Duplicate HI (retry after a lost HAck): re-acknowledge with the
		// existing session's grant.
		hack := &fho.HAck{Accepted: true, PCoA: msg.PCoA}
		if msg.BR != nil {
			hack.BA = &fho.BufferAck{Granted: s.avail.NAR, Size: uint16(s.granted)}
		}
		ar.sendControl(s.peer, hack)
		return
	}
	s := ar.newSession()
	s.role = roleNAR
	s.pcoa = msg.PCoA
	s.ncoa = msg.NCoA
	s.peer = pkt.Src
	s.avail = buffer.Availability{PAR: msg.PARGranted}
	hack := &fho.HAck{Accepted: true, PCoA: msg.PCoA}
	if msg.BR != nil {
		granted := ar.reserve(int(msg.BR.Size))
		if granted > 0 {
			s.granted = granted
			s.buf = ar.bufFree.Get(granted, ar.cfg.Alpha)
			s.avail.NAR = true
		}
		hack.BA = &fho.BufferAck{Granted: granted > 0, Size: uint16(granted)}
	}
	life := DefaultSessionLifetime
	if msg.BR != nil && msg.BR.Lifetime > 0 {
		life = msg.BR.Lifetime
	}
	if s.lifeTimer == nil {
		s.lifeTimer = sim.NewTimer(ar.engine, func() { ar.expire(s) })
	}
	s.lifeTimer.Reset(life)
	ar.sessions[msg.PCoA] = s
	if ar.cfg.Scheme == SchemeSafetyNet {
		ar.ncoaIndex[s.ncoa] = s
	}
	// Host route so redirected (and forward-only) packets for the PCoA
	// reach the radio.
	if ar.defaultAP != nil {
		ar.router.AddHostRoute(msg.PCoA, ar.defaultAP)
	}
	ar.sendControl(s.peer, hack)
}

// handleHAck completes the negotiation at the PAR and advertises the
// outcome to the mobile host.
func (ar *AccessRouter) handleHAck(msg *fho.HAck) {
	s, ok := ar.sessions[msg.PCoA]
	if !ok || s.role != rolePAR {
		return
	}
	// The exchange is acknowledged: stop retransmitting the HI.
	if s.hiTimer != nil {
		s.hiTimer.Stop()
	}
	s.lastHI = nil
	if !msg.Accepted {
		// The NAR refused the handover (e.g. failed authentication):
		// release the reservation and tell the host nothing is prepared.
		ar.closeSession(s, false)
		ar.sendControl(msg.PCoA, &fho.PrRtAdv{})
		return
	}
	s.avail.NAR = msg.Accepted && msg.BA != nil && msg.BA.Granted
	if s.avail.NAR {
		s.narGrant = int(msg.BA.Size)
	}
	ar.sendControl(s.pcoa, &fho.PrRtAdv{
		NAR:        s.peer,
		NARNet:     s.ncoa.Net,
		NCoA:       s.ncoa,
		NARGranted: s.avail.NAR,
		PARGranted: s.avail.PAR,
		TargetAP:   s.targetAP,
	})
}

// --- packet redirection (§3.2.2.2) ---

// handleFBU starts redirection at the PAR (or the link-layer-only router).
func (ar *AccessRouter) handleFBU(msg *fho.FBU) {
	if ar.auth != nil && !ar.auth.VerifyFBU(msg) {
		ar.authRejects++
		return
	}
	s, ok := ar.sessions[msg.PCoA]
	if !ok || s.role == roleNAR {
		return
	}
	s.redirecting = true
	if s.startTimer != nil {
		s.startTimer.Stop()
	}
	// FBAck to the host on the old link (it may already be gone) and, for
	// network handoffs, to the NAR.
	ar.sendControl(s.pcoa, &fho.FBAck{Accepted: true, PCoA: s.pcoa})
	if !s.peer.IsUnspecified() {
		ar.sendControl(s.peer, &fho.FBAck{Accepted: true, PCoA: s.pcoa})
	}
}

// redirect applies the scheme's buffering operation to one intercepted
// data packet at the PAR.
func (ar *AccessRouter) redirect(s *session, pkt *inet.Packet) {
	if s.role == roleLinkLayer {
		// §3.2.2.4: buffer everything locally during the L2 blackout.
		if s.buf == nil {
			ar.forwardLocal(s, pkt) // no grant: transmit into the blackout
			return
		}
		if r := s.buf.Push(pkt); r != buffer.DropNone {
			ar.drop(pkt, DropAtPAR)
		}
		return
	}

	op := ar.cfg.Scheme.Op(s.avail, pkt.EffectiveClass())
	switch op {
	case buffer.OpForward:
		ar.tunnelToPeer(s, pkt)
	case buffer.OpBufferNAR, buffer.OpBufferNARDropHead:
		s.sentToNAR++
		ar.tunnelToPeer(s, pkt)
	case buffer.OpBufferBoth:
		// Proactive switch: once a NAR buffer's worth has been forwarded
		// the rest is buffered locally, without waiting for BufferFull
		// (which remains the backstop for shared-buffer dynamics).
		if s.narFull || (s.narGrant > 0 && s.sentToNAR >= s.narGrant) {
			if r := s.buf.Push(pkt); r != buffer.DropNone {
				ar.drop(pkt, DropAtPAR)
			}
			return
		}
		s.sentToNAR++
		ar.tunnelToPeer(s, pkt)
	case buffer.OpBufferPAR:
		if r := s.buf.Push(pkt); r != buffer.DropNone {
			ar.drop(pkt, DropAtPAR)
		}
	case buffer.OpBufferPARAlpha:
		if r := s.buf.PushIfAboveAlpha(pkt); r != buffer.DropNone {
			ar.drop(pkt, DropAtPAR)
		}
	case buffer.OpDrop:
		ar.drop(pkt, DropPolicy)
	default:
		ar.tunnelToPeer(s, pkt)
	}
}

// narData applies the NAR-side buffering operation to a redirected packet.
func (ar *AccessRouter) narData(s *session, pkt *inet.Packet) {
	if s.released {
		ar.router.Forward(pkt) // host already attached; deliver directly
		return
	}
	if ar.cfg.Scheme == SchemeSafetyNet {
		// The PAR-redirected primary copies join the bicast duplicates in
		// the hold window: they cover the gap before the bicast request
		// reaches the MAP, and the host's dedup window resolves overlap.
		ar.holdBicast(s, pkt)
		return
	}
	op := ar.cfg.Scheme.Op(s.avail, pkt.EffectiveClass())
	if !op.BuffersAtNAR() || s.buf == nil {
		ar.router.Forward(pkt) // transmitted into the blackout
		return
	}
	switch op {
	case buffer.OpBufferNARDropHead:
		if evicted, reason := s.buf.PushDropHead(pkt); reason == buffer.DropHead {
			ar.drop(evicted, DropAtNAR)
		}
	case buffer.OpBufferBoth:
		if r := s.buf.Push(pkt); r != buffer.DropNone {
			ar.drop(pkt, DropAtNAR)
			if !s.fullSent && s.avail.PAR && !s.peer.IsUnspecified() {
				s.fullSent = true
				ar.sendControl(s.peer, &fho.BufferFull{PCoA: s.pcoa})
			}
		}
	default: // OpBufferNAR
		if r := s.buf.Push(pkt); r != buffer.DropNone {
			ar.drop(pkt, DropAtNAR)
		}
	}
}

// handleBufferFull flips the Case 1.b overflow switch at the PAR.
func (ar *AccessRouter) handleBufferFull(msg *fho.BufferFull) {
	if s, ok := ar.sessions[msg.PCoA]; ok && s.role == rolePAR {
		s.narFull = true
	}
}

// --- buffer release (§3.2.2.3) ---

// handleFNA is the NAR receiving the host's attach announcement: install
// host routes toward the arrival interface, drain, relay BF to the PAR.
func (ar *AccessRouter) handleFNA(in *netsim.Iface, msg *fho.FNA) {
	if ar.auth != nil && !ar.auth.VerifyFNA(msg) {
		ar.authRejects++
		return // unauthenticated host: no routes, no release
	}
	s, ok := ar.sessions[msg.PCoA]
	if !ok || s.role != roleNAR {
		// Host attached without a prepared session (no-anticipation
		// fallback): just install the routes. The PCoA route has no owning
		// session to tear it down, so it is bounded separately.
		if in != nil {
			ar.router.AddHostRoute(msg.NCoA, in)
			ar.router.AddHostRoute(msg.PCoA, in)
			ar.boundFallbackRoute(msg.PCoA, msg.NCoA)
		}
		return
	}
	if in != nil {
		ar.router.AddHostRoute(msg.NCoA, in)
		ar.router.AddHostRoute(msg.PCoA, in)
	}
	s.released = true
	if s.buf != nil {
		if ar.cfg.Scheme == SchemeSafetyNet {
			ar.drainSelective(s, msg.Report)
		} else {
			ar.drain(s.buf, inet.Addr{})
		}
	}
	if msg.BufferForward && !s.peer.IsUnspecified() {
		ar.sendControl(s.peer, &fho.BF{PCoA: msg.PCoA})
		if ar.cfg.RetransmitUnacked {
			s.bfTries = 1
			if s.bfTimer == nil {
				s.bfTimer = sim.NewTimer(ar.engine, func() { ar.retryBF(s) })
			}
			s.bfTimer.Reset(ar.cfg.RetransmitInterval)
		}
	}
	// Linger so the PAR's drained packets still find the session, then
	// return the reservation. The NCoA host route stays: the host now
	// lives here.
	if s.graceTimer == nil {
		s.graceTimer = sim.NewTimer(ar.engine, func() {
			if cur, ok := ar.sessions[s.pcoa]; ok && cur == s {
				ar.closeSession(s, false)
			}
		})
	}
	s.graceTimer.Reset(ar.cfg.GraceDelay)
}

// retryBF blindly retransmits the unacknowledged BF relay toward the PAR,
// leaning on handleBF's idempotency (a BF for an already-released session
// finds no session and is ignored). There is no exhaustion accounting: the
// BF only hastens the PAR's buffer release, and the PAR's session lifetime
// is the backstop if every copy is lost.
func (ar *AccessRouter) retryBF(s *session) {
	if cur, ok := ar.sessions[s.pcoa]; !ok || cur != s || s.bfTries >= ar.cfg.MaxSignalTries {
		return
	}
	s.bfTries++
	ar.sendControl(s.peer, &fho.BF{PCoA: s.pcoa})
	s.bfTimer.Reset(ar.cfg.RetransmitInterval << (s.bfTries - 1))
}

// DefaultFallbackRouteLifetime bounds the PCoA host route installed by the
// no-session FNA fallback. The route only exists to catch in-flight packets
// still addressed to the previous care-of address; once the binding updates
// have propagated nothing legitimate uses it.
const DefaultFallbackRouteLifetime = DefaultSessionLifetime

// boundFallbackRoute schedules removal of a fallback PCoA host route.
// Plain-MIP attaches announce PCoA == NCoA — the route is the resident
// route then and must not be bounded. A live session appearing for the
// PCoA takes ownership of the route, so the timer backs off.
func (ar *AccessRouter) boundFallbackRoute(pcoa, ncoa inet.Addr) {
	if pcoa == ncoa {
		return
	}
	t, ok := ar.fallbackRoutes[pcoa]
	if !ok {
		t = sim.NewTimer(ar.engine, func() {
			delete(ar.fallbackRoutes, pcoa)
			if _, owned := ar.sessions[pcoa]; owned {
				return
			}
			ar.router.RemoveHostRoute(pcoa)
		})
		ar.fallbackRoutes[pcoa] = t
	}
	t.Reset(DefaultFallbackRouteLifetime)
}

// handleBF releases the PAR's buffer: drain toward the NAR (or, for a
// link-layer handoff, toward the arrival interface) and end the session.
func (ar *AccessRouter) handleBF(in *netsim.Iface, msg *fho.BF) {
	s, ok := ar.sessions[msg.PCoA]
	if !ok {
		return
	}
	switch s.role {
	case roleLinkLayer:
		if in != nil {
			ar.router.AddHostRoute(s.pcoa, in)
		}
		s.redirecting = false
		if s.buf != nil {
			ar.drain(s.buf, inet.Addr{})
		}
		ar.closeSession(s, false)
	case rolePAR:
		if s.buf != nil {
			ar.drain(s.buf, s.peer)
		}
		s.redirecting = false
		ar.DetachResident(s.pcoa)
		ar.closeSession(s, false)
	default:
		// A BF at the NAR role is the FNA's job; ignore.
	}
}

// holdBicast parks one bicast-protected packet (the tunnel wrapper,
// whose chain the eventual receiver recycles whole) in the session's
// hold window. The window is allocated lazily from the buffer free list
// and never touches the pool accounting — under SafetyNet the router
// grants nothing, so exhaustion cannot occur. Overflow degrades to
// forwarding: the evicted oldest copy is the only one the NAR holds (the
// arrival dedup above parks each sequence at most once), so it is pushed
// onward toward the host immediately rather than silently discarded —
// if the host is already attached it is delivered; mid-blackout it
// becomes a visible air/route drop, never an unaccounted loss.
func (ar *AccessRouter) holdBicast(s *session, pkt *inet.Packet) {
	inner := pkt.Innermost()
	if inner.Flow != 0 && !observeFlowSeq(&s.holdSeen, inner.Flow, inner.Seq) {
		ar.discardDup(pkt) // twin already parked (or already evicted as stale)
		return
	}
	if s.buf == nil {
		s.buf = ar.bufFree.Get(ar.cfg.BicastWindow, 0)
	}
	ar.bicastHeld++
	// The hold window is FIFO parking, not the thesis' class-aware
	// handover buffer: overflow pops the oldest copy of *any* class.
	// (PushDropHead would evict only real-time packets and silently drop
	// the incoming copy when the window held none.)
	if s.buf.Full() {
		if evicted := s.buf.Pop(); evicted != nil {
			ar.bicastForwarded++
			ar.drainSend(evicted, inet.Addr{})
		}
	}
	s.buf.Push(pkt)
}

// discardDup disposes one redundant bicast copy: counted as dedup, never
// charged to the drop counters — the packet (or its twin) was already
// delivered or is still on its way.
func (ar *AccessRouter) discardDup(pkt *inet.Packet) {
	ar.bicastDiscarded++
	if ar.OnBicastDiscard != nil {
		ar.OnBicastDiscard(pkt)
	}
}

// drainSelective releases the held bicast copies the host has not seen
// and discards the rest per the FNA's selective-delivery report. A lost
// or empty report degrades to forwarding everything — full NAR
// forwarding, never loss; the host's dedup window absorbs the redundant
// deliveries. The release is unpaced: the window holds at most
// BicastWindow packets and the host is already attached.
func (ar *AccessRouter) drainSelective(s *session, report []fho.FlowSeq) {
	for pkt := s.buf.Pop(); pkt != nil; pkt = s.buf.Pop() {
		if reportCovers(report, pkt.Innermost()) {
			ar.discardDup(pkt)
			continue
		}
		ar.drainSend(pkt, inet.Addr{})
	}
}

// reportCovers reports whether the selective-delivery report acknowledges
// the packet: its flow has an entry whose cumulative ack reaches the
// packet's sequence number, compared with the same serial arithmetic the
// dedup window uses so coverage stays correct across a 2^32 sequence
// wrap. Reports carry one entry per application flow, so a linear scan
// beats any indexed structure.
func reportCovers(report []fho.FlowSeq, pkt *inet.Packet) bool {
	for _, e := range report {
		if inet.FlowID(e.Flow) == pkt.Flow {
			return !seqNewer(pkt.Seq, e.Ack)
		}
	}
	return false
}

// drain empties a buffer in FIFO order. An unspecified peer forwards each
// packet through the routing table; otherwise packets are tunnelled to
// peer. DrainInterval, when configured, paces the release through a single
// self-rescheduling drain job (one live event regardless of backlog size)
// instead of one scheduled closure per packet.
func (ar *AccessRouter) drain(buf *buffer.Buffer, peer inet.Addr) {
	if ar.cfg.DrainInterval <= 0 {
		for pkt := buf.Pop(); pkt != nil; pkt = buf.Pop() {
			ar.drainSend(pkt, peer)
		}
		return
	}
	job := ar.newDrainJob()
	job.pkts = buf.DrainTo(job.pkts[:0])
	if len(job.pkts) == 0 {
		ar.freeDrainJob(job)
		return
	}
	job.peer = peer
	ar.engine.Schedule(0, job.step)
}

// drainSend releases one drained packet toward its destination.
func (ar *AccessRouter) drainSend(pkt *inet.Packet, peer inet.Addr) {
	if peer.IsUnspecified() {
		ar.router.Forward(pkt)
		return
	}
	ar.router.Forward(pkt.Encapsulate(ar.cfg.Alloc, ar.router.Addr(), peer))
}

// drainJob is a paced buffer release in flight: a snapshot of the drained
// packets and a pre-bound step handler that sends one packet per
// DrainInterval. The job owns its packet scratch slice and survives its
// session (matching the old per-packet closures, which also outlived the
// session), so a recycled session cannot disturb an ongoing release.
type drainJob struct {
	ar   *AccessRouter
	pkts []*inet.Packet
	next int
	peer inet.Addr
	step func()
}

// newDrainJob takes a job off the free list, or builds one with its step
// handler bound once.
func (ar *AccessRouter) newDrainJob() *drainJob {
	if n := len(ar.drainFree); n > 0 {
		j := ar.drainFree[n-1]
		ar.drainFree[n-1] = nil
		ar.drainFree = ar.drainFree[:n-1]
		return j
	}
	j := &drainJob{ar: ar}
	j.step = j.fire
	return j
}

// freeDrainJob resets a finished job and recycles it.
func (ar *AccessRouter) freeDrainJob(j *drainJob) {
	for i := range j.pkts {
		j.pkts[i] = nil
	}
	j.pkts = j.pkts[:0]
	j.next = 0
	j.peer = inet.Addr{}
	ar.drainFree = append(ar.drainFree, j)
}

// fire sends the next drained packet and reschedules itself until the
// snapshot is exhausted.
func (j *drainJob) fire() {
	ar := j.ar
	pkt := j.pkts[j.next]
	j.pkts[j.next] = nil
	j.next++
	ar.drainSend(pkt, j.peer)
	if j.next < len(j.pkts) {
		ar.engine.Schedule(ar.cfg.DrainInterval, j.step)
		return
	}
	ar.freeDrainJob(j)
}

// --- session lifecycle ---

// expire fires when a session's buffering lifetime lapses before release:
// buffered packets are dropped and the space reclaimed.
func (ar *AccessRouter) expire(s *session) {
	if cur, ok := ar.sessions[s.pcoa]; !ok || cur != s {
		return
	}
	if s.buf != nil {
		// SafetyNet hold windows contain duplicates, not the only copies:
		// expiring them is dedup, not loss.
		dup := ar.cfg.Scheme == SchemeSafetyNet && s.role == roleNAR
		for pkt := s.buf.Pop(); pkt != nil; pkt = s.buf.Pop() {
			if dup {
				ar.discardDup(pkt)
			} else {
				ar.drop(pkt, DropOnLifetime)
			}
		}
	}
	ar.closeSession(s, true)
}

// closeSession tears down timers, reservations, and (for NAR sessions) the
// PCoA host route, then recycles the session and its buffer. Callers must
// not touch s afterwards.
func (ar *AccessRouter) closeSession(s *session, expired bool) {
	if s.startTimer != nil {
		s.startTimer.Stop()
	}
	if s.lifeTimer != nil {
		s.lifeTimer.Stop()
	}
	if s.graceTimer != nil {
		s.graceTimer.Stop()
	}
	if s.hiTimer != nil {
		s.hiTimer.Stop()
	}
	if s.bfTimer != nil {
		s.bfTimer.Stop()
	}
	if s.granted > 0 {
		ar.pool.Release(s.granted)
		ar.grantLive--
		s.granted = 0
	}
	if s.buf != nil {
		if ar.cfg.Scheme == SchemeSafetyNet && s.role == roleNAR {
			// Any copies still held are duplicates; recycle them rather
			// than letting the slab clear orphan the pooled packets.
			for pkt := s.buf.Pop(); pkt != nil; pkt = s.buf.Pop() {
				ar.discardDup(pkt)
			}
		}
		ar.bufFree.Put(s.buf)
		s.buf = nil
	}
	if s.role == roleNAR {
		ar.router.RemoveHostRoute(s.pcoa)
		if cur, ok := ar.ncoaIndex[s.ncoa]; ok && cur == s {
			delete(ar.ncoaIndex, s.ncoa)
		}
	}
	delete(ar.sessions, s.pcoa)
	ar.freeSession(s)
	_ = expired
}

// newSession takes a session off the free list (keeping its pre-bound
// timers, which closeSession already stopped) or allocates a fresh one.
func (ar *AccessRouter) newSession() *session {
	if n := len(ar.sessFree); n > 0 {
		s := ar.sessFree[n-1]
		ar.sessFree[n-1] = nil
		ar.sessFree = ar.sessFree[:n-1]
		return s
	}
	return &session{}
}

// freeSession zeroes every per-handoff field (timers stay bound to the
// session object and are reused by the next incarnation) and recycles s.
func (ar *AccessRouter) freeSession(s *session) {
	s.role = 0
	s.pcoa, s.ncoa, s.peer = inet.Addr{}, inet.Addr{}, inet.Addr{}
	s.targetAP = ""
	s.avail = buffer.Availability{}
	s.granted = 0
	s.buf = nil
	s.redirecting, s.narFull, s.fullSent, s.released = false, false, false, false
	s.narGrant, s.sentToNAR = 0, 0
	s.holdSeen = s.holdSeen[:0] // next append rewrites with zero windows
	s.hiTries, s.bfTries = 0, 0
	s.lastHI = nil
	ar.sessFree = append(ar.sessFree, s)
}

// --- helpers ---

// forwardLocal pushes a packet toward the mobile host through the normal
// routing table (host route → AP → air).
func (ar *AccessRouter) forwardLocal(s *session, pkt *inet.Packet) {
	ar.router.Forward(pkt)
}

// tunnelToPeer encapsulates a data packet toward the session's peer router.
func (ar *AccessRouter) tunnelToPeer(s *session, pkt *inet.Packet) {
	if s.peer.IsUnspecified() {
		ar.router.Forward(pkt)
		return
	}
	ar.router.Forward(pkt.Encapsulate(ar.cfg.Alloc, ar.router.Addr(), s.peer))
}

// sendControl originates a control packet from this router.
func (ar *AccessRouter) sendControl(dst inet.Addr, msg fho.Message) {
	ar.controlSent[msg.Kind()]++
	if ar.OnControl != nil {
		ar.OnControl(msg.Kind())
	}
	ar.router.Forward(&inet.Packet{
		Src:     ar.router.Addr(),
		Dst:     dst,
		Proto:   inet.ProtoControl,
		Size:    fho.WireSize(msg),
		Created: ar.engine.Now(),
		Payload: msg,
	})
}

// drop records a dropped packet.
func (ar *AccessRouter) drop(pkt *inet.Packet, where string) {
	if ar.OnDrop != nil {
		ar.OnDrop(pkt, where)
	}
}

// String identifies the router in traces.
func (ar *AccessRouter) String() string {
	return fmt.Sprintf("ar(%s net=%d %s)", ar.router.Name(), ar.net, ar.cfg.Scheme)
}
