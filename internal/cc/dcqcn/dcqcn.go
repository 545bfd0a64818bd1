// Package dcqcn implements the DCQCN congestion-control algorithm (Zhu
// et al., SIGCOMM 2015) as deployed on RoCEv2 NICs: ECN-marked packets
// trigger CNPs from the receiver; the sender maintains a rate pair
// (current Rc, target Rt) with an α-weighted multiplicative decrease and
// a three-phase increase (fast recovery → additive → hyper) driven by a
// timer and a byte counter.
//
// The paper's Figure 2 sweeps the rate-increase timer Ti and the
// rate-decrease minimum gap Td; both are exposed in Config. The
// "DCQCN+win" variant of §5.1 adds an HPCC-style sending window bound to
// the current rate (W = Rc × T).
package dcqcn

import (
	"hpcc/internal/cc"
	"hpcc/internal/sim"
)

// Config holds the DCQCN knobs the evaluation varies (the paper counts
// 15 in production), with vendor defaults.
type Config struct {
	// RateIncTimer is Ti, the period of rate-increase events; default
	// 300 µs (the vendor default in Figure 2).
	RateIncTimer sim.Time
	// MinDecGap is Td, the minimum gap between two rate decreases;
	// default 4 µs (vendor default in Figure 2).
	MinDecGap sim.Time
	// Window, when true, adds the HPCC-style inflight cap W = Rc × T
	// ("DCQCN+win", §5.1).
	Window bool
}

const (
	// G is the α EWMA gain.
	G = 1.0 / 256
	// AlphaTimer is the α-decay period when no CNP arrives.
	AlphaTimer = 55 * sim.Microsecond
	// FastRecoveryTh is F, the number of increase stages spent in fast
	// recovery.
	FastRecoveryTh = 5
	// ByteCounter is B: every this many acknowledged bytes advance the
	// byte-counter increase stage.
	ByteCounter = 10 << 20
)

func (c *Config) normalize() {
	if c.RateIncTimer == 0 {
		c.RateIncTimer = 300 * sim.Microsecond
	}
	if c.MinDecGap == 0 {
		c.MinDecGap = 4 * sim.Microsecond
	}
}

// DCQCN is one flow's sender state.
type DCQCN struct {
	cfg Config // defaults resolved by New
	env cc.Env

	// alphaFn/rateFn are the two clock callbacks, bound once by New so
	// re-arming a timer never allocates a method value.
	alphaFn, rateFn func()

	rc, rt       float64 // current / target rate, bits per second
	rai          float64 // additive increase step, bits per second; hyper increase is 10×
	alpha        float64
	cnpSeen      bool // CNP since the last alpha timer tick
	lastDecrease sim.Time
	timeStage    int
	byteStage    int
	bytesSince   int64
}

// New returns a factory producing DCQCN instances.
func New(cfg Config) cc.Factory {
	cfg.normalize()
	return func() cc.Algorithm {
		d := &DCQCN{cfg: cfg}
		d.alphaFn, d.rateFn = d.alphaTick, d.rateTick
		return d
	}
}

// Name implements cc.Algorithm.
func (d *DCQCN) Name() string {
	if d.cfg.Window {
		return "DCQCN+win"
	}
	return "DCQCN"
}

// Init implements cc.Algorithm: start at line rate (§2.2 "RDMA hosts
// start sending at line rate") and arm the two timers.
func (d *DCQCN) Init(env cc.Env) {
	*d = DCQCN{cfg: d.cfg, env: env, alphaFn: d.alphaFn, rateFn: d.rateFn}
	// The DCQCN paper's 40 Mbps AI step at 25 Gbps, scaled to the line rate.
	d.rai = float64(sim.Rate(int64(40*sim.Mbps) * int64(env.LineRate) / int64(25*sim.Gbps)))
	d.rc = float64(env.LineRate)
	d.rt = d.rc
	d.alpha = 1
	d.lastDecrease = -d.cfg.MinDecGap
	env.Schedule(AlphaTimer, d.alphaFn)
	env.Schedule(d.cfg.RateIncTimer, d.rateFn)
}

func (d *DCQCN) alphaTick() {
	if !d.cnpSeen {
		d.alpha *= 1 - G
	}
	d.cnpSeen = false
	d.env.Schedule(AlphaTimer, d.alphaFn)
}

func (d *DCQCN) rateTick() {
	d.timeStage++
	d.increase()
	d.env.Schedule(d.cfg.RateIncTimer, d.rateFn)
}

// increase applies one rate-increase event: fast recovery while both
// stage counters are below F, hyper increase when both exceeded it,
// additive increase otherwise.
func (d *DCQCN) increase() {
	switch {
	case d.timeStage <= FastRecoveryTh && d.byteStage <= FastRecoveryTh:
		// Fast recovery: close half the gap to the target.
	case d.timeStage > FastRecoveryTh && d.byteStage > FastRecoveryTh:
		d.rt += float64(10 * d.rai)
	default:
		d.rt += d.rai
	}
	if d.rt > float64(d.env.LineRate) {
		d.rt = float64(d.env.LineRate)
	}
	d.rc = (d.rc + d.rt) / 2
	d.clamp()
}

// OnAck implements cc.Algorithm: only the byte counter consumes ACKs.
func (d *DCQCN) OnAck(ev *cc.AckEvent) {
	d.bytesSince += ev.AckedBytes
	if d.bytesSince >= ByteCounter {
		d.bytesSince = 0
		d.byteStage++
		d.increase()
	}
}

// OnCNP implements cc.Algorithm: the multiplicative decrease, rate-
// limited to one cut per MinDecGap (Td).
func (d *DCQCN) OnCNP(now sim.Time) {
	d.cnpSeen = true
	if now-d.lastDecrease < d.cfg.MinDecGap {
		return
	}
	d.lastDecrease = now
	d.alpha = cc.EWMA(d.alpha, 1, G)
	d.rt = d.rc
	d.rc = d.rc * (1 - float64(d.alpha/2))
	d.timeStage = 0
	d.byteStage = 0
	d.bytesSince = 0
	d.clamp()
}

func (d *DCQCN) clamp() {
	d.rc = cc.Clamp(d.rc, float64(d.env.LineRate/1000), float64(d.env.LineRate))
}

// WindowBytes implements cc.Algorithm: unbounded for classic DCQCN,
// Rc × T for the +win variant.
func (d *DCQCN) WindowBytes() float64 {
	if !d.cfg.Window {
		return cc.Unlimited()
	}
	return d.env.RateWindow(d.rc)
}

// RateBps implements cc.Algorithm.
func (d *DCQCN) RateBps() float64 { return d.rc }

// Alpha exposes α for tests and tracing.
func (d *DCQCN) Alpha() float64 { return d.alpha }

// TargetRate exposes Rt for tests and tracing.
func (d *DCQCN) TargetRate() float64 { return d.rt }
