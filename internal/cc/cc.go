// Package cc defines the congestion-control contract between the NIC
// (internal/host) and the algorithms (internal/cc/hpcc, dcqcn, timely,
// dctcp).
//
// An Algorithm owns two knobs the NIC enforces on every flow, exactly as
// §3.2 of the HPCC paper prescribes: a sending window (a cap on inflight
// bytes) and a pacing rate. Rate-only schemes report an unbounded window;
// window-only schemes derive the rate as W/T.
package cc

import (
	"math"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Env is the runtime a flow's algorithm instance receives at Init.
// Schedule lets timer-driven schemes (DCQCN) arm their own clocks; the
// host re-reads Window/Rate after every scheduled callback.
type Env struct {
	Now      func() sim.Time
	Schedule func(d sim.Time, fn func())
	LineRate sim.Rate // NIC port speed (B_NIC)
	BaseRTT  sim.Time // the network-wide base RTT T (§3.2)
	MTU      int      // data payload bytes per packet
	Seed     int64    // per-flow deterministic randomness
}

// BDP returns the bandwidth-delay product B_NIC × T in bytes — the
// paper's initial window W_init.
func (e *Env) BDP() float64 {
	return e.LineRate.BytesPerSec() * e.BaseRTT.Seconds()
}

// RateWindow returns the window of a rate-based scheme's +win variant
// (§5.1): rate × T in bytes for a rate in bits per second, and never
// less than one MTU.
func (e *Env) RateWindow(rate float64) float64 {
	return max(rate/8*e.BaseRTT.Seconds(), float64(e.MTU))
}

// AckEvent carries everything an ACK tells the sender.
type AckEvent struct {
	Now        sim.Time
	RTT        sim.Time // measured by timestamp echo
	AckSeq     int64    // cumulative: next byte expected by the receiver
	SndNxt     int64    // sender's snd_nxt when the ACK was processed
	AckedBytes int64    // new bytes acknowledged by this ACK
	ECE        bool     // ECN echo
	Hops       []packet.Hop
	PathID     uint16
}

// Algorithm is one flow's congestion-control state machine. Instances
// are per-flow and never shared across goroutines (the simulator is
// single-threaded).
type Algorithm interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Init binds the algorithm to its flow's environment, before any
	// traffic. The host recycles instances across flows, so Init may be
	// called again on a used instance and must then behave exactly as
	// on a fresh one from the same Factory: every piece of state except
	// the factory's configuration starts over, and callbacks armed
	// under an earlier Init are never run (the host drops them).
	Init(env Env)
	// OnAck processes one acknowledgment.
	OnAck(ev *AckEvent)
	// OnCNP processes a congestion-notification packet (DCQCN; no-op
	// for the others).
	OnCNP(now sim.Time)
	// WindowBytes is the current inflight-byte cap. +Inf means the
	// scheme does not limit inflight data.
	WindowBytes() float64
	// RateBps is the current pacing rate in bits per second.
	RateBps() float64
}

// Factory builds a fresh algorithm instance for a new flow.
type Factory func() Algorithm

// Unlimited is the WindowBytes value of rate-only schemes.
func Unlimited() float64 { return math.Inf(1) }

// EWMA returns (1−g)·old + g·sample, each product rounded by a
// conversion so that no GOARCH fuses it into a multiply-add.
func EWMA(old, sample, g float64) float64 {
	return float64((1-g)*old) + float64(g*sample)
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
