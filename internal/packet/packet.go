// Package packet defines the simulated wire units: data packets, ACKs,
// NACKs, CNPs and PFC frames, plus the in-band network telemetry (INT)
// header that HPCC relies on (Figure 7 of the paper).
//
// Inside the simulator, packets carry INT records as structured fields at
// full precision, with no per-packet byte encoding. Hop.Quantize is the
// one statement of the Figure-7 wire precision; switches apply it to
// their stamps when asked to emulate hardware (SwitchConfig.INTQuantize).
package packet

import (
	"fmt"

	"hpcc/internal/sim"
)

// Type discriminates the simulated frame kinds.
type Type uint8

// Frame kinds.
const (
	Data Type = iota
	Ack
	Nack
	CNP
	PFC
	// ReadReq is an RDMA READ request: the requester asks the
	// responder to stream Seq bytes back (§4.2 — HPCC supports RDMA
	// WRITE and READ; WRITE is the plain data flow).
	ReadReq
)

func (t Type) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case CNP:
		return "CNP"
	case PFC:
		return "PFC"
	case ReadReq:
		return "READ"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Wire-size constants, in bytes. A data packet is payload + HeaderBytes
// (+ INTOverhead when INT is enabled, the paper's worst-case assumption
// of 42 bytes for 5 hops, §5.1).
const (
	HeaderBytes  = 64 // Eth + IP + UDP + IB BTH + ICRC, rounded
	AckBytes     = 64
	CtrlBytes    = 64 // NACK / CNP / PFC frames
	INTBaseBytes = 2  // nHop(4b) + pathID(12b)
	INTHopBytes  = 8  // B(4b) TS(24b) txBytes(20b) qLen(16b)
	// INTOverhead is the flat per-packet INT header tax used by the
	// evaluation: a full MaxHops stack, 42 bytes (§5.1 "worst-case
	// assumption").
	INTOverhead = INTBaseBytes + MaxHops*INTHopBytes

	// DefaultMTU is the data payload size used throughout the paper's
	// evaluation ("1KB packet").
	DefaultMTU = 1000
)

// MaxHops bounds the INT stack depth: data-center paths are at most 5
// switches (§4.1, §5.1), and every fabric is held to it (no registry
// path crosses more; ParkingLot and Custom reject deeper ones).
const MaxHops = 5

// Hop is one switch egress-port INT record, stamped at dequeue.
type Hop struct {
	B       sim.Rate // egress link bandwidth
	TS      sim.Time // timestamp when the packet left the egress port
	TxBytes uint64   // cumulative bytes transmitted by the egress port
	RxBytes uint64   // cumulative bytes received into the egress queue (for the rxRate ablation, §3.4)
	QLen    int64    // egress queue length in bytes at dequeue
}

// INTHeader is the telemetry stack a data packet accumulates hop by hop
// and the receiver echoes back in the ACK.
type INTHeader struct {
	NHops  uint8
	PathID uint16 // XOR of 12-bit switch IDs along the path
	Hops   [MaxHops]Hop
}

// Push appends a hop record and folds the switch ID into PathID,
// mirroring what the P4 pipeline does per Figure 7.
func (h *INTHeader) Push(hop Hop, switchID uint16) {
	if h.NHops < MaxHops {
		h.Hops[h.NHops] = hop
	}
	h.NHops++
	h.PathID ^= switchID & 0x0fff
}

// Records returns the valid hop records; a nil header has none.
func (h *INTHeader) Records() []Hop {
	if h == nil {
		return nil
	}
	return h.Hops[:min(h.NHops, MaxHops)]
}

// Packet is a simulated frame. One struct covers every frame type; each
// field's comment names the frame types that use it, and the one-byte
// fields sit together with Queue's ingress index so the struct is 72
// bytes. A frame's traffic class is its type: Data rides the lossless
// data class, every other type the control class (see package fabric).
// Packets come from per-network free-list Pools and are recycled at
// their terminal consumption points (ACK processing, switch drops, PFC
// consumption); the simulator never aliases a packet after handing it
// to the next node.
type Packet struct {
	Type Type
	// FlowEnd (data) marks the chunk carrying the flow's final byte, so
	// the receiver can finish the flow's receive QP once everything up
	// to it has been delivered in order.
	FlowEnd  bool
	ECNCE    bool  // data: congestion-experienced mark set by switches
	ECE      bool  // ACK: ECN echo
	PFCPause bool  // PFC: true = pause the data class, false = resume it
	ingress  int16 // the port index Queue.Push recorded, in the flags' padding

	FlowID     int32 // sender-assigned flow identifier
	Src, Dst   int32 // host node IDs (network-wide)
	Size       int32 // total wire size, bytes
	PayloadLen int32 // data
	// DstQP (all but PFC) is the BTH DestQP field: the queue-pair number
	// of the frame's connection at its destination host, the only way
	// the frame finds its state there; it fills PayloadLen's padding.
	DstQP int32

	Seq    int64    // data: offset of the first payload byte; ACK / NACK / CNP: its data frame's (IRN selective repeat)
	SendTS sim.Time // data: sender timestamp; ACK / NACK / CNP: its data frame's, for the RTT sample
	AckSeq int64    // ACK / NACK: cumulative ACK, the next expected byte

	// INT is the telemetry stack of a data frame from Pool.GetINT and of
	// the ACK made from it; nil on every frame that carries none.
	INT  *INTHeader
	next *Packet // the frame behind this one in its Queue or Pool free list
}

// String renders a short trace line for debugging.
func (p *Packet) String() string {
	switch p.Type {
	case Data:
		return fmt.Sprintf("DATA f%d seq=%d len=%d", p.FlowID, p.Seq, p.PayloadLen)
	case Ack:
		return fmt.Sprintf("ACK f%d cum=%d", p.FlowID, p.AckSeq)
	case Nack:
		return fmt.Sprintf("NACK f%d exp=%d", p.FlowID, p.AckSeq)
	case CNP:
		return fmt.Sprintf("CNP f%d", p.FlowID)
	case PFC:
		op := "RESUME"
		if p.PFCPause {
			op = "PAUSE"
		}
		return "PFC " + op
	default:
		return p.Type.String()
	}
}
