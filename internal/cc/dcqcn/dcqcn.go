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

// Config holds DCQCN's knobs (the paper counts 15 in production; the
// ones that matter for the evaluation are here, with vendor defaults).
type Config struct {
	// G is the α EWMA gain; default 1/256.
	G float64
	// AlphaTimer is the α-decay period when no CNP arrives; default 55 µs.
	AlphaTimer sim.Time
	// RateIncTimer is Ti, the period of rate-increase events; default
	// 300 µs (the vendor default in Figure 2).
	RateIncTimer sim.Time
	// MinDecGap is Td, the minimum gap between two rate decreases;
	// default 4 µs (vendor default in Figure 2).
	MinDecGap sim.Time
	// FastRecoveryTh is F, the number of increase stages spent in fast
	// recovery; default 5.
	FastRecoveryTh int
	// RateAI / RateHAI are the additive and hyper increase steps;
	// defaults scale the DCQCN paper's 40 Mbps (at 25G) to the line
	// rate, with HAI = 10 × AI.
	RateAI, RateHAI sim.Rate
	// ByteCounter advances the increase stages every this many sent
	// bytes (10 MB default); 0 disables the byte counter.
	ByteCounter int64
	// MinRate floors Rc; default LineRate/1000.
	MinRate sim.Rate
	// Window, when true, adds the HPCC-style inflight cap W = Rc × T
	// ("DCQCN+win", §5.1).
	Window bool
}

func (c *Config) normalize(env *cc.Env) {
	if c.G == 0 {
		c.G = 1.0 / 256
	}
	if c.AlphaTimer == 0 {
		c.AlphaTimer = 55 * sim.Microsecond
	}
	if c.RateIncTimer == 0 {
		c.RateIncTimer = 300 * sim.Microsecond
	}
	if c.MinDecGap == 0 {
		c.MinDecGap = 4 * sim.Microsecond
	}
	if c.FastRecoveryTh == 0 {
		c.FastRecoveryTh = 5
	}
	if c.RateAI == 0 {
		c.RateAI = sim.Rate(int64(40*sim.Mbps) * int64(env.LineRate) / int64(25*sim.Gbps))
	}
	if c.RateHAI == 0 {
		c.RateHAI = 10 * c.RateAI
	}
	if c.ByteCounter == 0 {
		c.ByteCounter = 10 << 20
	}
	if c.MinRate == 0 {
		c.MinRate = env.LineRate / 1000
	}
}

// DCQCN is one flow's sender state.
type DCQCN struct {
	raw Config // as given to New; Init resolves its defaults into cfg
	cfg Config
	env cc.Env

	// alphaFn/rateFn are the two clock callbacks, bound once by New so
	// re-arming a timer never allocates a method value.
	alphaFn, rateFn func()

	rc, rt       float64 // current / target rate, bits per second
	alpha        float64
	cnpSeen      bool // CNP since the last alpha timer tick
	lastDecrease sim.Time
	timeStage    int
	byteStage    int
	bytesSince   int64
}

// New returns a factory producing DCQCN instances.
func New(cfg Config) cc.Factory {
	return func() cc.Algorithm {
		d := &DCQCN{raw: cfg, cfg: cfg}
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
	*d = DCQCN{raw: d.raw, cfg: d.raw, env: env, alphaFn: d.alphaFn, rateFn: d.rateFn}
	d.cfg.normalize(&env)
	d.rc = float64(env.LineRate)
	d.rt = d.rc
	d.alpha = 1
	d.lastDecrease = -d.cfg.MinDecGap
	env.Schedule(d.cfg.AlphaTimer, d.alphaFn)
	env.Schedule(d.cfg.RateIncTimer, d.rateFn)
}

func (d *DCQCN) alphaTick() {
	if !d.cnpSeen {
		d.alpha *= 1 - d.cfg.G
	}
	d.cnpSeen = false
	d.env.Schedule(d.cfg.AlphaTimer, d.alphaFn)
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
	f := d.cfg.FastRecoveryTh
	switch {
	case d.timeStage <= f && d.byteStage <= f:
		// Fast recovery: close half the gap to the target.
	case d.timeStage > f && d.byteStage > f:
		d.rt += float64(d.cfg.RateHAI)
	default:
		d.rt += float64(d.cfg.RateAI)
	}
	if d.rt > float64(d.env.LineRate) {
		d.rt = float64(d.env.LineRate)
	}
	d.rc = (d.rc + d.rt) / 2
	d.clamp()
}

// OnAck implements cc.Algorithm: only the byte counter consumes ACKs.
func (d *DCQCN) OnAck(ev *cc.AckEvent) {
	if ev.ECE {
		// ECN echo without a separate CNP packet: some deployments
		// fold CNP into ACKs; the host delivers explicit CNPs via
		// OnCNP, so nothing to do here.
		_ = ev
	}
	d.bytesSince += ev.AckedBytes
	if d.cfg.ByteCounter > 0 && d.bytesSince >= d.cfg.ByteCounter {
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
	d.alpha = (1-d.cfg.G)*d.alpha + d.cfg.G
	d.rt = d.rc
	d.rc = d.rc * (1 - d.alpha/2)
	d.timeStage = 0
	d.byteStage = 0
	d.bytesSince = 0
	d.clamp()
}

func (d *DCQCN) clamp() {
	d.rc = cc.Clamp(d.rc, float64(d.cfg.MinRate), float64(d.env.LineRate))
}

// WindowBytes implements cc.Algorithm: unbounded for classic DCQCN,
// Rc × T for the +win variant.
func (d *DCQCN) WindowBytes() float64 {
	if !d.cfg.Window {
		return cc.Unlimited()
	}
	w := d.rc / 8 * d.env.BaseRTT.Seconds()
	if w < float64(d.env.MTU) {
		w = float64(d.env.MTU)
	}
	return w
}

// RateBps implements cc.Algorithm.
func (d *DCQCN) RateBps() float64 { return d.rc }

// Alpha exposes α for tests and tracing.
func (d *DCQCN) Alpha() float64 { return d.alpha }

// TargetRate exposes Rt for tests and tracing.
func (d *DCQCN) TargetRate() float64 { return d.rt }
