// Package timely implements TIMELY (Mittal et al., SIGCOMM 2015),
// RTT-gradient congestion control for the data center, as reproduced by
// the HPCC paper's evaluation. The "TIMELY+win" variant adds the
// HPCC-style inflight cap W = R × T (§5.1).
package timely

import (
	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

// Config carries TIMELY's parameters with the values the TIMELY paper
// suggests (and the HPCC paper reuses, §5.1).
type Config struct {
	// EWMA is the weight of a new RTT-difference sample; default 0.875
	// (matching the ns-3 reproduction the paper's simulations use).
	EWMA float64
	// Beta is the multiplicative-decrease factor; default 0.8.
	Beta float64
	// TLow / THigh bound the gradient-based zone; below TLow TIMELY
	// always increases, above THigh it always decreases. Defaults 50 µs
	// and 500 µs.
	TLow, THigh sim.Time
	// AddStep is the additive increment δ; the TIMELY paper used
	// 10 Mbps at 10 Gbps line rate, so the default scales that ratio.
	AddStep sim.Rate
	// HAIAfter is how many consecutive non-positive gradients switch to
	// hyper-active increase (5 × δ); default 5.
	HAIAfter int
	// MinRate floors the rate; default LineRate/1000.
	MinRate sim.Rate
	// Window, when true, adds the inflight cap W = R × T ("TIMELY+win").
	Window bool
}

func (c *Config) normalize(env *cc.Env) {
	if c.EWMA == 0 {
		c.EWMA = 0.875
	}
	if c.Beta == 0 {
		c.Beta = 0.8
	}
	if c.TLow == 0 {
		c.TLow = 50 * sim.Microsecond
	}
	if c.THigh == 0 {
		c.THigh = 500 * sim.Microsecond
	}
	if c.AddStep == 0 {
		c.AddStep = sim.Rate(int64(10*sim.Mbps) * int64(env.LineRate) / int64(10*sim.Gbps))
	}
	if c.HAIAfter == 0 {
		c.HAIAfter = 5
	}
	if c.MinRate == 0 {
		c.MinRate = env.LineRate / 1000
	}
}

// Timely is one flow's sender state.
type Timely struct {
	raw Config // as given to New; Init resolves its defaults into cfg
	cfg Config
	env cc.Env

	rate     float64 // bits per second
	prevRTT  sim.Time
	rttDiff  float64 // EWMA of RTT differences, picoseconds
	negCount int     // consecutive non-positive gradients
}

// New returns a factory producing TIMELY instances.
func New(cfg Config) cc.Factory {
	return func() cc.Algorithm { return &Timely{raw: cfg, cfg: cfg} }
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
	*t = Timely{raw: t.raw, cfg: t.raw, env: env}
	t.cfg.normalize(&env)
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
	t.rttDiff = (1-t.cfg.EWMA)*t.rttDiff + t.cfg.EWMA*newDiff
	gradient := t.rttDiff / float64(t.env.BaseRTT)

	switch {
	case rtt < t.cfg.TLow:
		t.rate += float64(t.cfg.AddStep)
		t.negCount = 0
	case rtt > t.cfg.THigh:
		t.rate *= 1 - t.cfg.Beta*(1-float64(t.cfg.THigh)/float64(rtt))
		t.negCount = 0
	case gradient <= 0:
		t.negCount++
		n := 1.0
		if t.negCount >= t.cfg.HAIAfter {
			n = 5
		}
		t.rate += n * float64(t.cfg.AddStep)
	default:
		t.rate *= 1 - t.cfg.Beta*gradient
		t.negCount = 0
	}
	t.rate = cc.Clamp(t.rate, float64(t.cfg.MinRate), float64(t.env.LineRate))
}

// OnCNP implements cc.Algorithm; TIMELY ignores CNPs.
func (t *Timely) OnCNP(sim.Time) {}

// WindowBytes implements cc.Algorithm.
func (t *Timely) WindowBytes() float64 {
	if !t.cfg.Window {
		return cc.Unlimited()
	}
	w := t.rate / 8 * t.env.BaseRTT.Seconds()
	if w < float64(t.env.MTU) {
		w = float64(t.env.MTU)
	}
	return w
}

// RateBps implements cc.Algorithm.
func (t *Timely) RateBps() float64 { return t.rate }

// Gradient exposes the normalized RTT gradient for tests and tracing.
func (t *Timely) Gradient() float64 { return t.rttDiff / float64(t.env.BaseRTT) }
