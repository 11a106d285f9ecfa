// Package tcp implements the slice of TCP Reno the thesis' link-layer
// handoff experiments exercise (Figures 4.12–4.14): slow start, congestion
// avoidance, fast retransmit/recovery, and a coarse-grained retransmission
// timer with BSD-style 500 ms ticks and a 1 s minimum RTO — the timing the
// thesis blames for the 1–1.5 s stall after an unbuffered handoff.
//
// Only the sender→receiver data direction carries payload (an FTP-style
// bulk transfer); the reverse direction carries pure ACKs. Connection
// establishment and teardown are out of scope: every experiment studies a
// long-lived established connection.
package tcp

import (
	"fmt"

	"repro/internal/inet"
)

// Segment is the TCP payload carried inside an inet.Packet.
type Segment struct {
	// Seq is the first byte's sequence number (data segments).
	Seq uint64
	// Len is the payload length in bytes (zero for pure ACKs).
	Len int
	// Ack reports whether AckNo is valid.
	Ack bool
	// AckNo is the cumulative acknowledgement (next byte expected).
	AckNo uint64
	// Retransmit marks retransmitted data (excluded from RTT sampling,
	// per Karn's algorithm).
	Retransmit bool
}

// IsData reports whether the segment carries payload.
func (s *Segment) IsData() bool { return s.Len > 0 }

// End returns the sequence number one past the segment's last byte.
func (s *Segment) End() uint64 { return s.Seq + uint64(s.Len) }

// String implements fmt.Stringer.
func (s *Segment) String() string {
	if s.IsData() {
		return fmt.Sprintf("data[%d:%d)", s.Seq, s.End())
	}
	return fmt.Sprintf("ack[%d]", s.AckNo)
}

// HeaderSize is the combined TCP/IP header overhead per segment.
const HeaderSize = 40

// newPacket returns a zeroed packet from alloc, or a fresh one when alloc
// is nil. The branch matters: a fresh packet allocated up front and then
// overwritten by alloc's would still escape to the heap. Callers set the
// fields one by one: assigning a whole struct would wipe the pool
// bookkeeping a pooled packet carries.
func newPacket(alloc func() *inet.Packet) *inet.Packet {
	if alloc != nil {
		return alloc()
	}
	return new(inet.Packet)
}
