// Package hpcc implements the HPCC sender algorithm — Algorithm 1 of
// "HPCC: High Precision Congestion Control" (SIGCOMM 2019) — plus the
// ablation variants the paper evaluates: rxRate-based feedback (Fig. 6)
// and pure per-ACK / per-RTT reaction strategies (Fig. 13).
package hpcc

import (
	"math"

	"hpcc/internal/cc"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Reaction selects how the sender combines per-ACK and per-RTT updates
// (§3.2 "Fast reaction without overreaction").
type Reaction int

const (
	// Combined is HPCC proper: react to every ACK, but derive the new
	// window from a reference window W^c that is only synced once per
	// RTT (when the ACK of the first packet sent under the current W^c
	// returns).
	Combined Reaction = iota
	// PerAck reacts to every ACK and immediately adopts the result as
	// the new reference — the overreacting strawman of Figure 13.
	PerAck
	// PerRTT reacts only once per RTT, ignoring the other ACKs — the
	// slow-reacting strawman of Figure 13.
	PerRTT
)

func (r Reaction) String() string {
	switch r {
	case PerAck:
		return "per-ACK"
	case PerRTT:
		return "per-RTT"
	default:
		return "combined"
	}
}

// Config carries HPCC's three tunables (§3.3) and the ablation switches.
type Config struct {
	// Eta is the target utilization η; default 0.95.
	Eta float64
	// MaxStage caps consecutive additive-increase rounds before a
	// multiplicative adjustment; default 5.
	MaxStage int
	// WAI is the additive-increase step in bytes. Zero selects the
	// paper's rule of thumb W_AI = W_init × (1−η) / N with N = 100
	// expected concurrent flows (§3.3, §5.1).
	WAI float64
	// UseRxRate replaces txRate with rxRate in all calculations — the
	// HPCC-rxRate strawman of §3.4 / Figure 6.
	UseRxRate bool
	// Reaction selects the reaction-combining strategy.
	Reaction Reaction
}

func (c *Config) normalize(env *cc.Env) {
	if c.Eta == 0 {
		c.Eta = 0.95
	}
	if c.MaxStage == 0 {
		c.MaxStage = 5
	}
	if c.WAI == 0 {
		c.WAI = env.BDP() * (1 - c.Eta) / 100
	}
}

// HPCC is one flow's sender state (Algorithm 1).
type HPCC struct {
	raw Config // as given to New; Init resolves its defaults into cfg
	cfg Config
	env cc.Env

	w    float64 // current window W
	wc   float64 // reference window W^c
	u    float64 // EWMA of normalized inflight bytes U
	rate float64 // pacing rate, bits/s

	incStage      int
	lastUpdateSeq int64

	// L is the link-feedback record from the previous ACK
	// (Algorithm 1's "sender's record of link feedbacks").
	l        [packet.MaxHops]packet.Hop
	nl       int
	pathID   uint16
	havePath bool

	winInit float64
	minWnd  float64
}

// New returns a factory producing HPCC instances with the given config.
func New(cfg Config) cc.Factory {
	return func() cc.Algorithm { return &HPCC{raw: cfg, cfg: cfg} }
}

// Name implements cc.Algorithm.
func (h *HPCC) Name() string {
	switch {
	case h.cfg.UseRxRate:
		return "HPCC-rxRate"
	case h.cfg.Reaction == PerAck:
		return "HPCC-perACK"
	case h.cfg.Reaction == PerRTT:
		return "HPCC-perRTT"
	default:
		return "HPCC"
	}
}

// Init implements cc.Algorithm: W_init = B_NIC × T, start at line rate.
func (h *HPCC) Init(env cc.Env) {
	*h = HPCC{raw: h.raw, cfg: h.raw, env: env}
	h.cfg.normalize(&env)
	h.winInit = env.BDP()
	// The pacing rate floors at LineRate/1000, mirroring the ns-3
	// reference setup; the window floors at that rate × T.
	h.minWnd = (env.LineRate / 1000).BytesPerSec() * env.BaseRTT.Seconds()
	h.w = h.winInit
	h.wc = h.winInit
	h.rate = float64(env.LineRate)
}

// WindowBytes implements cc.Algorithm.
func (h *HPCC) WindowBytes() float64 { return h.w }

// RateBps implements cc.Algorithm: R = W / T (§3.2).
func (h *HPCC) RateBps() float64 { return h.rate }

// Utilization returns the current EWMA estimate U (for tracing).
func (h *HPCC) Utilization() float64 { return h.u }

// PathID returns the last recorded path identifier; the sender rebuilds
// its link records whenever it changes (§4.1).
func (h *HPCC) PathID() uint16 { return h.pathID }

// OnCNP implements cc.Algorithm; HPCC does not use CNPs.
func (h *HPCC) OnCNP(sim.Time) {}

// OnAck implements cc.Algorithm — procedure NewAck of Algorithm 1.
func (h *HPCC) OnAck(ev *cc.AckEvent) {
	if len(ev.Hops) == 0 {
		return // no INT info (control-plane loss); nothing to react to
	}
	if !h.havePath || h.pathID != ev.PathID || h.nl != len(ev.Hops) {
		// First feedback on a (new) path: rebuild the records (§4.1),
		// react on the next ACK.
		h.resetPath(ev)
		return
	}
	if h.staleFeedback(ev) {
		// The 12-bit pathID can collide across an ECMP reroute (XOR of
		// switch IDs), leaving records from a different path in h.l. A
		// raw curr-prev subtraction would underflow to an absurd txRate
		// and slam the window to minWnd; treat the ACK as no-feedback
		// and rebuild the records instead.
		h.resetPath(ev)
		return
	}

	// Combined syncs W^c only when an ACK covers the first packet sent
	// under the current reference; PerAck syncs on every ACK (Figure
	// 13's overreaction); PerRTT reacts only on the syncing ACKs and
	// skips the rest, so its link records and measurement window span
	// the full RTT.
	updateWc := h.cfg.Reaction == PerAck || ev.AckSeq > h.lastUpdateSeq
	if h.cfg.Reaction == PerRTT && !updateWc {
		return
	}
	u := h.measureInflight(ev)
	h.w = h.computeWind(u, updateWc)
	if updateWc {
		h.lastUpdateSeq = ev.SndNxt
	}
	h.rate = h.w / h.env.BaseRTT.Seconds() * 8
	h.record(ev)
}

func (h *HPCC) resetPath(ev *cc.AckEvent) {
	h.record(ev)
	h.pathID = ev.PathID
	h.havePath = true
	h.u = 0
	h.incStage = 0
	// Anchor the per-RTT sync point at the current snd_nxt: every ACK
	// until a packet sent from now on is covered reacts against the
	// frozen reference window (Figure 5 — no overreaction during the
	// first round trip).
	h.lastUpdateSeq = ev.SndNxt
}

func (h *HPCC) record(ev *cc.AckEvent) {
	h.nl = copy(h.l[:], ev.Hops)
}

// staleFeedback reports whether the ACK's INT records are impossible
// successors of the stored ones: per-egress cumulative counters and
// timestamps never decrease on an unchanged path (ACKs ride the control
// class in FIFO order), so a regression means the stored records belong
// to a different path despite matching pathID/nHops.
func (h *HPCC) staleFeedback(ev *cc.AckEvent) bool {
	for i := range ev.Hops {
		if i >= h.nl || i >= packet.MaxHops {
			break
		}
		curr, prev := &ev.Hops[i], &h.l[i]
		if curr.TS < prev.TS || curr.TxBytes < prev.TxBytes || curr.RxBytes < prev.RxBytes {
			return true
		}
	}
	return false
}

// measureInflight is function MeasureInflight of Algorithm 1: estimate
// the normalized inflight bytes of the most loaded link and fold it
// into the parameterless EWMA U.
func (h *HPCC) measureInflight(ev *cc.AckEvent) float64 {
	t := h.env.BaseRTT.Seconds()
	u := 0.0
	var tau sim.Time
	for i := range ev.Hops {
		curr := &ev.Hops[i]
		prev := &h.l[i]
		dt := curr.TS - prev.TS
		var txRate float64 // bytes per second
		if dt > 0 {
			var db uint64
			if h.cfg.UseRxRate {
				db = curr.RxBytes - prev.RxBytes
			} else {
				db = curr.TxBytes - prev.TxBytes
			}
			txRate = float64(db) / dt.Seconds()
		}
		bBytes := curr.B.BytesPerSec()
		qlen := float64(min64(curr.QLen, prev.QLen))
		uLink := qlen/(bBytes*t) + txRate/bBytes
		if uLink > u {
			u = uLink
			tau = dt
		}
	}
	if tau > h.env.BaseRTT {
		tau = h.env.BaseRTT
	}
	if tau < 0 {
		tau = 0
	}
	frac := float64(tau) / float64(h.env.BaseRTT)
	h.u = cc.EWMA(h.u, u, frac)
	return h.u
}

// computeWind is function ComputeWind of Algorithm 1: multiplicative
// adjust when U ≥ η or after maxStage additive rounds, else additive
// increase; sync the reference window when updateWc is set.
func (h *HPCC) computeWind(u float64, updateWc bool) float64 {
	var w float64
	if u >= h.cfg.Eta || h.incStage >= h.cfg.MaxStage {
		k := u / h.cfg.Eta
		if k < 1e-9 {
			k = 1e-9
		}
		w = h.wc/k + h.cfg.WAI
		if updateWc {
			h.incStage = 0
			h.wc = clampW(w, h.minWnd, h.winInit)
		}
	} else {
		w = h.wc + h.cfg.WAI
		if updateWc {
			h.incStage++
			h.wc = clampW(w, h.minWnd, h.winInit)
		}
	}
	return clampW(w, h.minWnd, h.winInit)
}

func clampW(w, lo, hi float64) float64 {
	if math.IsNaN(w) {
		return lo
	}
	return cc.Clamp(w, lo, hi)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
