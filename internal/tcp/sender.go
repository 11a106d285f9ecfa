package tcp

import (
	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SenderConfig parameterizes a Reno sender.
type SenderConfig struct {
	// Src and Dst are the connection endpoints.
	Src, Dst inet.Addr
	// Flow identifies the connection in statistics.
	Flow inet.FlowID
	// Class is stamped on every data segment.
	Class inet.Class
	// MSS is the maximum payload per segment. Zero selects DefaultMSS.
	MSS int
	// MaxWindow caps the congestion window in segments (the receiver's
	// advertised window). Zero selects DefaultMaxWindow.
	MaxWindow int
	// InitialSSThresh in segments. Zero selects DefaultSSThresh.
	InitialSSThresh int
	// Tick is the retransmission-timer granularity (500 ms in most BSD
	// implementations and in the thesis' simulations). Zero selects
	// DefaultTick.
	Tick sim.Time
	// MinRTO floors the retransmission timeout (1 s in most
	// implementations, per the thesis). Zero selects DefaultMinRTO.
	MinRTO sim.Time
	// NewReno enables RFC 6582 partial-ACK recovery: a new ACK that does
	// not cover the whole loss episode retransmits the next hole and
	// stays in fast recovery, so multiple losses in one window cost one
	// recovery instead of one timeout each. Off by default — the thesis
	// simulated classic Reno.
	NewReno bool
	// LimitBytes bounds the application data: the sender stops offering
	// new bytes at the limit (an FTP of a fixed file). Zero means
	// unlimited.
	LimitBytes uint64
	// Alloc, if set, supplies zeroed packet structs for data segments
	// (typically a topology's recycling pool); nil falls back to plain
	// allocation.
	Alloc func() *inet.Packet
}

// Defaults for SenderConfig fields left zero.
const (
	DefaultMSS       = 1460
	DefaultMaxWindow = 64
	DefaultSSThresh  = 32
	DefaultTick      = 500 * sim.Millisecond
	DefaultMinRTO    = 1 * sim.Second
	maxRTO           = 64 * sim.Second
)

func (c *SenderConfig) applyDefaults() {
	if c.MSS == 0 {
		c.MSS = DefaultMSS
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = DefaultMaxWindow
	}
	if c.InitialSSThresh == 0 {
		c.InitialSSThresh = DefaultSSThresh
	}
	if c.Tick == 0 {
		c.Tick = DefaultTick
	}
	if c.MinRTO == 0 {
		c.MinRTO = DefaultMinRTO
	}
}

// Sender is a TCP Reno bulk sender with unlimited application data (FTP).
type Sender struct {
	engine *sim.Engine
	cfg    SenderConfig
	send   func(*inet.Packet)
	newID  func() uint64

	running bool

	sndUna   uint64 // oldest unacknowledged byte
	sndNxt   uint64 // next byte to send
	maxSent  uint64 // highest byte ever sent (detects retransmissions)
	cwnd     float64
	ssthresh float64
	dupAcks  int
	inFR     bool   // fast recovery
	recover  uint64 // sndNxt when the current loss episode began

	// Coarse retransmission timing.
	ticker       *sim.Ticker
	rto          sim.Time
	lastProgress sim.Time
	doneAt       sim.Time
	timeouts     uint64
	fastRetrans  uint64

	// RTT estimation (one timed segment at a time, Karn's rule).
	timedSeq  uint64
	timedAt   sim.Time
	timing    bool
	srtt      sim.Time
	rttvar    sim.Time
	hasSample bool

	// SendTrace records (time, seq) for transmitted data; AckTrace records
	// cumulative ACKs as they return — together the Figure 4.12/4.13
	// curves on the sender side.
	SendTrace stats.SeqTrace
	AckTrace  stats.SeqTrace
}

// NewSender creates a stopped sender. send transmits packets (typically a
// host's Send); newID may be nil.
func NewSender(engine *sim.Engine, cfg SenderConfig, send func(*inet.Packet), newID func() uint64) *Sender {
	cfg.applyDefaults()
	if send == nil {
		panic("tcp: NewSender with nil send")
	}
	return &Sender{
		engine:   engine,
		cfg:      cfg,
		send:     send,
		newID:    newID,
		cwnd:     1,
		ssthresh: float64(cfg.InitialSSThresh),
		rto:      cfg.MinRTO,
	}
}

// Config returns the sender parameters.
func (s *Sender) Config() SenderConfig { return s.cfg }

// Cwnd returns the congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SndUna returns the oldest unacknowledged byte.
func (s *Sender) SndUna() uint64 { return s.sndUna }

// Timeouts returns the number of RTO firings.
func (s *Sender) Timeouts() uint64 { return s.timeouts }

// FastRetransmits returns the number of fast retransmit events.
func (s *Sender) FastRetransmits() uint64 { return s.fastRetrans }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() sim.Time { return s.rto }

// Done reports whether a bounded transfer (LimitBytes) has been fully
// acknowledged. Unlimited senders are never done.
func (s *Sender) Done() bool {
	return s.cfg.LimitBytes > 0 && s.sndUna >= s.cfg.LimitBytes
}

// DoneAt returns when the transfer completed (zero until Done).
func (s *Sender) DoneAt() sim.Time { return s.doneAt }

// Start begins transmission and arms the coarse timer.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.lastProgress = s.engine.Now()
	s.ticker = sim.NewTicker(s.engine, s.cfg.Tick, s.tick)
	s.pump()
}

// Stop halts transmission and the timer.
func (s *Sender) Stop() {
	s.running = false
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// window returns the usable window in bytes.
func (s *Sender) window() uint64 {
	w := s.cwnd
	if max := float64(s.cfg.MaxWindow); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return uint64(w) * uint64(s.cfg.MSS)
}

// pump sends segments while the window (and the application limit)
// allows.
func (s *Sender) pump() {
	if !s.running {
		return
	}
	for s.sndNxt < s.sndUna+s.window() {
		if s.cfg.LimitBytes > 0 && s.sndNxt >= s.cfg.LimitBytes {
			return
		}
		s.transmit(s.sndNxt)
		s.sndNxt += uint64(s.cfg.MSS)
	}
}

// transmit emits one MSS-sized segment starting at seq. Segments below the
// high-water mark are retransmissions.
func (s *Sender) transmit(seq uint64) {
	now := s.engine.Now()
	retransmit := seq < s.maxSent
	seg := &Segment{Seq: seq, Len: s.cfg.MSS, Retransmit: retransmit}
	if end := seg.End(); end > s.maxSent {
		s.maxSent = end
	}
	pkt := newPacket(s.cfg.Alloc)
	pkt.Src, pkt.Dst = s.cfg.Src, s.cfg.Dst
	pkt.Proto = inet.ProtoTCP
	pkt.Class = s.cfg.Class
	pkt.Flow = s.cfg.Flow
	pkt.Seq = uint32(seq / uint64(s.cfg.MSS))
	pkt.Size = s.cfg.MSS + HeaderSize
	pkt.Created = now
	pkt.Payload = seg
	if s.newID != nil {
		pkt.ID = s.newID()
	}
	s.SendTrace.Record(now, seq)
	if !retransmit && !s.timing {
		s.timing = true
		s.timedSeq = seg.End()
		s.timedAt = now
	}
	if retransmit && s.timing && seq < s.timedSeq {
		s.timing = false // Karn: discard the sample
	}
	s.send(pkt)
}

// HandleAck processes a returning acknowledgement.
func (s *Sender) HandleAck(seg *Segment) {
	if !seg.Ack || !s.running {
		return
	}
	now := s.engine.Now()
	s.AckTrace.Record(now, seg.AckNo)

	if seg.AckNo > s.sndUna {
		s.newAck(seg.AckNo, now)
	} else if seg.AckNo == s.sndUna && s.sndNxt > s.sndUna {
		s.dupAck()
	}
	s.pump()
}

// newAck handles forward progress.
func (s *Sender) newAck(ackNo uint64, now sim.Time) {
	s.sndUna = ackNo
	s.lastProgress = now
	s.dupAcks = 0
	if s.doneAt == 0 && s.Done() {
		s.doneAt = now
		if s.ticker != nil {
			s.ticker.Stop()
		}
	}

	if s.timing && ackNo >= s.timedSeq {
		s.sampleRTT(now - s.timedAt)
		s.timing = false
	}

	if s.inFR {
		if s.cfg.NewReno && ackNo < s.recover {
			// NewReno partial ACK: the episode has more holes; retransmit
			// the next one and stay in recovery.
			s.transmit(ackNo)
			return
		}
		// Recovery complete (or classic Reno: any new ACK ends it).
		s.inFR = false
		s.cwnd = s.ssthresh
		return
	}
	if s.cwnd < s.ssthresh {
		s.cwnd++ // slow start
	} else {
		s.cwnd += 1 / s.cwnd // congestion avoidance
	}
}

// dupAck handles a duplicate acknowledgement.
func (s *Sender) dupAck() {
	s.dupAcks++
	switch {
	case s.inFR:
		s.cwnd++ // window inflation
	case s.dupAcks == 3:
		// Fast retransmit.
		s.fastRetrans++
		flight := float64(s.sndNxt-s.sndUna) / float64(s.cfg.MSS)
		s.ssthresh = flight / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.recover = s.sndNxt
		s.inFR = true
		s.cwnd = s.ssthresh + 3
		s.transmit(s.sndUna)
	}
}

// tick is the coarse timer: when no progress happened within the RTO, the
// sender times out, collapses the window, and retransmits from sndUna.
func (s *Sender) tick() {
	if s.sndNxt == s.sndUna {
		return // nothing in flight
	}
	now := s.engine.Now()
	if now-s.lastProgress < s.rto {
		return
	}
	s.timeouts++
	flight := float64(s.sndNxt-s.sndUna) / float64(s.cfg.MSS)
	s.ssthresh = flight / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.inFR = false
	s.dupAcks = 0
	s.rto *= 2 // exponential backoff
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	s.lastProgress = now
	s.timing = false
	// Go-back-N, as BSD stacks do: slow start resends from the hole, so a
	// multi-segment loss costs one timeout rather than one per hole.
	s.sndNxt = s.sndUna
	s.pump()
}

// sampleRTT feeds one measurement into the RFC 6298 estimator, quantized
// to the tick granularity like a BSD stack.
func (s *Sender) sampleRTT(rtt sim.Time) {
	if !s.hasSample {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasSample = true
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	rto := s.srtt + 4*s.rttvar
	// Quantize up to the timer granularity and apply the floor.
	ticks := (rto + s.cfg.Tick - 1) / s.cfg.Tick
	rto = ticks * s.cfg.Tick
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	s.rto = rto
}
