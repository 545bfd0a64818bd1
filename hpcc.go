// Package hpcc is a from-scratch Go reproduction of "HPCC: High
// Precision Congestion Control" (Li et al., SIGCOMM 2019): the HPCC
// sender algorithm driven by in-network telemetry (INT), the RoCEv2-
// style transport and switch data plane it runs on, the baseline
// schemes it is evaluated against (DCQCN, TIMELY, DCTCP and their
// windowed variants), and a deterministic packet-level simulator that
// regenerates every figure of the paper's evaluation.
//
// Three API layers:
//
//   - Sender: the HPCC congestion-control algorithm alone, fed with INT
//     feedback you provide — for embedding in other stacks or studies.
//   - Network / Flow: a simulated data-center fabric with explicit flow
//     control — for micro-benchmarks (incasts, fairness, rate traces).
//   - Experiment: whole-cluster load experiments composed from Topology,
//     Traffic and Observer spec values, with FCT-slowdown, queue and PFC
//     statistics; Experiment.Start also builds the Network above.
//
// The figure-by-figure reproduction lives in cmd/hpccexp; the raw
// experiment code in internal/experiment.
package hpcc

import (
	"time"

	"hpcc/internal/cc"
	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// INTHop is one switch egress-port telemetry record, as stamped into a
// packet at dequeue (Figure 7 of the paper).
type INTHop struct {
	// BandwidthBps is the egress link capacity in bits per second.
	BandwidthBps int64
	// Timestamp is when the packet left the egress port.
	Timestamp time.Duration
	// TxBytes is the port's cumulative transmitted-byte counter.
	TxBytes uint64
	// QueueBytes is the egress queue depth at dequeue.
	QueueBytes int64
}

// SenderConfig parameterizes the HPCC algorithm (§3.3: the three
// tunables) for standalone use.
type SenderConfig struct {
	// LineRateBps is the NIC speed in bits per second.
	LineRateBps int64
	// BaseRTT is the network-wide base RTT T.
	BaseRTT time.Duration
	// Eta is the target utilization η (default 0.95).
	Eta float64
	// MaxStage bounds consecutive additive-increase rounds (default 5).
	MaxStage int
	// WAIBytes is the additive-increase step (default: the §3.3 rule
	// of thumb for 100 concurrent flows).
	WAIBytes float64
}

// Sender is a standalone HPCC flow state machine (Algorithm 1). Feed it
// one Ack per acknowledgment; read WindowBytes and RateBps to drive
// transmission. HPCC is ACK-clocked and sets no timers, so OnAck alone
// drives it.
type Sender struct {
	inner *hpcccc.HPCC
	now   func() time.Duration
}

// Ack carries one acknowledgment's feedback into the Sender.
type Ack struct {
	// RTT is the measured round-trip time of the acknowledged packet.
	RTT time.Duration
	// AckSeq is the cumulative acknowledgment (next expected byte).
	AckSeq int64
	// SndNxt is the sender's next-to-send byte offset right now.
	SndNxt int64
	// Hops is the INT stack echoed by the receiver, sender-to-receiver
	// order. The stack holds at most 5 hops (§5.1's INT budget); the
	// Sender does not react to a longer one.
	Hops []INTHop
	// PathID detects route changes (XOR of switch IDs, Figure 7).
	PathID uint16
}

// NewSender builds a standalone HPCC instance. now supplies the current
// time (monotonic); it is only used to timestamp state transitions.
func NewSender(cfg SenderConfig, now func() time.Duration) *Sender {
	inner := hpcccc.New(hpcccc.Config{
		Eta:      cfg.Eta,
		MaxStage: cfg.MaxStage,
		WAI:      cfg.WAIBytes,
	})().(*hpcccc.HPCC)
	// Schedule stays nil: a scheme that set a timer here would fail at
	// once instead of silently never firing it.
	inner.Init(cc.Env{
		Now:      func() sim.Time { return sim.Time(now().Nanoseconds()) * sim.Nanosecond },
		LineRate: sim.Rate(cfg.LineRateBps),
		BaseRTT:  sim.Time(cfg.BaseRTT.Nanoseconds()) * sim.Nanosecond,
	})
	return &Sender{inner: inner, now: now}
}

// OnAck processes one acknowledgment.
func (s *Sender) OnAck(a Ack) {
	hops := make([]packet.Hop, len(a.Hops))
	for i, h := range a.Hops {
		hops[i] = packet.Hop{
			B:       sim.Rate(h.BandwidthBps),
			TS:      toSim(h.Timestamp),
			TxBytes: h.TxBytes,
			RxBytes: h.TxBytes,
			QLen:    h.QueueBytes,
		}
	}
	s.inner.OnAck(&cc.AckEvent{
		Now:    toSim(s.now()),
		RTT:    toSim(a.RTT),
		AckSeq: a.AckSeq,
		SndNxt: a.SndNxt,
		Hops:   hops,
		PathID: a.PathID,
	})
}

// WindowBytes returns the current inflight-byte limit W.
func (s *Sender) WindowBytes() float64 { return s.inner.WindowBytes() }

// RateBps returns the current pacing rate R = W/T in bits per second.
func (s *Sender) RateBps() float64 { return s.inner.RateBps() }

// Utilization returns the EWMA estimate U of normalized inflight bytes
// on the most loaded link.
func (s *Sender) Utilization() float64 { return s.inner.Utilization() }

// toSim converts a wall-clock duration to simulator picoseconds.
func toSim(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}

// fromSim converts simulator time to a wall-clock duration (truncating
// to nanoseconds).
func fromSim(t sim.Time) time.Duration {
	return time.Duration(t.Nanoseconds()) * time.Nanosecond
}
