// Package dctcp implements DCTCP (Alizadeh et al., SIGCOMM 2010) as the
// HPCC paper evaluates it: a window-based scheme whose window shrinks in
// proportion to the EWMA fraction α of ECN-marked bytes, with the slow-
// start phase removed for fairness of comparison (§5.1) — flows start at
// a full bandwidth-delay-product window like the RDMA schemes.
package dctcp

import (
	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

const (
	// G is the α EWMA gain the DCTCP paper recommends.
	G = 1.0 / 16
	// MaxWindowBDP caps the window at this many bandwidth-delay
	// products (queues are bounded by switch buffers, not the window).
	MaxWindowBDP = 8
)

// DCTCP is one flow's sender state.
type DCTCP struct {
	env cc.Env

	w     float64 // window, bytes
	alpha float64

	windowEnd   int64 // seq marking the end of the current observation window
	ackedBytes  int64
	markedBytes int64
}

// New returns a factory producing DCTCP instances.
func New() cc.Factory {
	return func() cc.Algorithm { return &DCTCP{} }
}

// Name implements cc.Algorithm.
func (d *DCTCP) Name() string { return "DCTCP" }

// Init implements cc.Algorithm: no slow start, W starts at one BDP.
func (d *DCTCP) Init(env cc.Env) {
	*d = DCTCP{env: env}
	d.w = env.BDP()
}

// OnAck implements cc.Algorithm: accumulate marked/acked bytes; once
// per RTT (when the cumulative ACK passes the window marker) update α
// and apply the DCTCP control law.
func (d *DCTCP) OnAck(ev *cc.AckEvent) {
	d.ackedBytes += ev.AckedBytes
	if ev.ECE {
		d.markedBytes += ev.AckedBytes
	}
	if ev.AckSeq < d.windowEnd {
		return
	}
	// One observation window has elapsed.
	if d.ackedBytes > 0 {
		f := float64(d.markedBytes) / float64(d.ackedBytes)
		d.alpha = cc.EWMA(d.alpha, f, G)
		if d.markedBytes > 0 {
			d.w = d.w * (1 - float64(d.alpha/2))
		} else {
			d.w += float64(d.env.MTU) // one MSS per RTT
		}
	}
	d.ackedBytes = 0
	d.markedBytes = 0
	d.windowEnd = ev.SndNxt
	d.w = cc.Clamp(d.w, float64(d.env.MTU), MaxWindowBDP*d.env.BDP())
}

// OnCNP implements cc.Algorithm; DCTCP uses ECN echoes, not CNPs.
func (d *DCTCP) OnCNP(sim.Time) {}

// WindowBytes implements cc.Algorithm.
func (d *DCTCP) WindowBytes() float64 { return d.w }

// RateBps implements cc.Algorithm: pace at W/T like the other
// window-based schemes (the host port caps at line rate regardless).
func (d *DCTCP) RateBps() float64 {
	return d.w / d.env.BaseRTT.Seconds() * 8
}

// Alpha exposes α for tests and tracing.
func (d *DCTCP) Alpha() float64 { return d.alpha }
