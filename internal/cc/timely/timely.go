// Package timely implements TIMELY (Mittal et al., SIGCOMM 2015),
// RTT-gradient congestion control for the data center, as reproduced by
// the HPCC paper's evaluation. The "TIMELY+win" variant adds the
// HPCC-style inflight cap W = R × T (§5.1).
package timely

import (
	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

// Config selects the TIMELY variant.
type Config struct {
	// Window, when true, adds the inflight cap W = R × T ("TIMELY+win").
	Window bool
}

// TIMELY's parameters, with the values the TIMELY paper suggests (and
// the HPCC paper reuses, §5.1).
const (
	// EWMA is the weight of a new RTT-difference sample (matching the
	// ns-3 reproduction the paper's simulations use).
	EWMA = 0.875
	// Beta is the multiplicative-decrease factor.
	Beta = 0.8
	// TLow / THigh bound the gradient-based zone; below TLow TIMELY
	// always increases, above THigh it always decreases.
	TLow  = 50 * sim.Microsecond
	THigh = 500 * sim.Microsecond
	// HAIAfter is how many consecutive non-positive gradients switch to
	// hyper-active increase (5 × δ).
	HAIAfter = 5
)

// Timely is one flow's sender state.
type Timely struct {
	cfg Config
	env cc.Env

	// addStep is the additive increment δ: the TIMELY paper's 10 Mbps
	// at 10 Gbps line rate, scaled to the line rate. Bits per second.
	addStep  float64
	rate     float64 // bits per second
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, picoseconds
	negCount int     // consecutive non-positive gradients
}

// New returns a factory producing TIMELY instances.
func New(cfg Config) cc.Factory {
	return func() cc.Algorithm { return &Timely{cfg: cfg} }
}

// Name implements cc.Algorithm.
func (t *Timely) Name() string {
	if t.cfg.Window {
		return "TIMELY+win"
	}
	return "TIMELY"
}

// Init implements cc.Algorithm: flows start at line rate.
func (t *Timely) Init(env cc.Env) {
	*t = Timely{cfg: t.cfg, env: env}
	t.addStep = float64(sim.Rate(int64(10*sim.Mbps) * int64(env.LineRate) / int64(10*sim.Gbps)))
	t.rate = float64(env.LineRate)
}

// OnAck implements cc.Algorithm: TIMELY's per-completion update using
// the ACK's echoed-timestamp RTT sample.
func (t *Timely) OnAck(ev *cc.AckEvent) {
	rtt := ev.RTT
	if rtt <= 0 {
		return
	}
	if t.prevRTT == 0 {
		t.prevRTT = rtt
		return
	}
	newDiff := float64(rtt - t.prevRTT)
	t.prevRTT = rtt
	t.rttDiff = cc.EWMA(t.rttDiff, newDiff, EWMA)
	gradient := t.rttDiff / float64(t.env.BaseRTT)

	switch {
	case rtt < TLow:
		t.rate += t.addStep
		t.negCount = 0
	case rtt > THigh:
		t.rate *= 1 - float64(Beta*(1-float64(THigh)/float64(rtt)))
		t.negCount = 0
	case gradient <= 0:
		t.negCount++
		n := 1.0
		if t.negCount >= HAIAfter {
			n = 5
		}
		t.rate += float64(n * t.addStep)
	default:
		t.rate *= 1 - float64(Beta*gradient)
		t.negCount = 0
	}
	t.rate = cc.Clamp(t.rate, float64(t.env.LineRate/1000), float64(t.env.LineRate))
}

// OnCNP implements cc.Algorithm; TIMELY ignores CNPs.
func (t *Timely) OnCNP(sim.Time) {}

// WindowBytes implements cc.Algorithm.
func (t *Timely) WindowBytes() float64 {
	if !t.cfg.Window {
		return cc.Unlimited()
	}
	return t.env.RateWindow(t.rate)
}

// RateBps implements cc.Algorithm.
func (t *Timely) RateBps() float64 { return t.rate }

// Gradient exposes the normalized RTT gradient for tests and tracing.
func (t *Timely) Gradient() float64 { return t.rttDiff / float64(t.env.BaseRTT) }
