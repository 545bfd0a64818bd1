package fabric

import (
	"fmt"
	"math/rand"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// SwitchConfig sets a switch's data-plane behaviour. The defaults (via
// Normalize) reproduce the paper's evaluation setup.
type SwitchConfig struct {
	// BufferBytes is the shared packet buffer size (32 MB in §5.1).
	BufferBytes int64

	// PFCEnabled turns on priority flow control with the PFCAlpha
	// dynamic pause threshold.
	PFCEnabled bool

	// ECNEnabled turns on WRED marking of data frames: they are
	// CE-marked with probability rising linearly from 0 at KMin to PMax
	// at KMax, and always above KMax (DCQCN-style marking).
	ECNEnabled bool
	KMin, KMax int64

	// INTEnabled makes the switch stamp a telemetry record into data
	// packets at dequeue. INTQuantize additionally rounds each record
	// to the Figure-7 wire precision with packet.Hop.Quantize, emulating
	// the ASIC.
	INTEnabled  bool
	INTQuantize bool

	// LossyEgressAlpha bounds each egress data queue to
	// LossyEgressAlpha × (free buffer) when PFC is disabled; packets
	// beyond that are dropped (the paper's footnote 6 uses α = 1 for
	// the go-back-N and IRN experiments). Zero disables the bound.
	LossyEgressAlpha float64

	// Seed feeds the WRED coin flips.
	Seed int64

	// Pool recycles packet structs consumed at this switch (drops, PFC
	// frames). Topology builders share one pool per network; nil gets a
	// private pool.
	Pool *packet.Pool
}

const (
	// PMax is the WRED marking probability at KMax.
	PMax = 0.2
	// PFCAlpha is the dynamic-threshold fraction: an ingress port's data
	// class is paused when its buffered bytes exceed PFCAlpha × (free
	// buffer); the paper pauses at 11% of the free buffer (§5.1).
	PFCAlpha = 0.11
	// PFCResumeHysteresis is how many bytes below the pause threshold
	// the ingress must drain before a resume frame is sent.
	PFCResumeHysteresis = 2 * (packet.DefaultMTU + packet.HeaderBytes)
)

// Normalize fills zero fields with the paper's defaults.
func (c *SwitchConfig) Normalize() {
	if c.BufferBytes == 0 {
		c.BufferBytes = 32 << 20
	}
	if c.KMin == 0 {
		c.KMin = 100 << 10
	}
	if c.KMax == 0 {
		c.KMax = 400 << 10
	}
}

// Switch is a shared-buffer output-queued switch with ECMP routing,
// optional PFC, WRED/ECN and INT stamping.
type Switch struct {
	id   NodeID
	eng  *sim.Engine
	cfg  SwitchConfig
	rng  *rand.Rand // WRED/ECN stream; nil unless cfg.ECNEnabled
	pool *packet.Pool

	ports  []*Port
	routes [][]int // ECMP port set by destination NodeID (IDs are dense); built at wiring time

	used      int64   // shared buffer bytes in use (data class only)
	ingressB  []int64 // buffered data bytes by ingress port
	pauseSent []bool  // by ingress port: a pause went upstream, no resume yet

	// Statistics.
	drops     uint64
	pfcSent   uint64
	maxUsed   int64
	ecnMarked uint64
	routeErrs uint64
}

// NewSwitch creates a switch; ports are attached afterwards with
// AttachPort (typically via topology builders).
func NewSwitch(eng *sim.Engine, id NodeID, cfg SwitchConfig) *Switch {
	cfg.Normalize()
	pool := cfg.Pool
	if pool == nil {
		pool = packet.NewPool()
	}
	s := &Switch{id: id, eng: eng, cfg: cfg, pool: pool}
	if cfg.ECNEnabled {
		s.rng = sim.NewRNG(cfg.Seed, fmt.Sprintf("switch-%d-wred", id))
	}
	return s
}

// ID returns the switch's node ID.
func (s *Switch) ID() NodeID { return s.id }

// Config returns the active configuration.
func (s *Switch) Config() SwitchConfig { return s.cfg }

// AttachPort registers a port created by Connect. The port's index must
// equal its position in the attachment order.
func (s *Switch) AttachPort(p *Port) {
	if p.Index() != len(s.ports) {
		panic("fabric: port attached out of order")
	}
	s.ports = append(s.ports, p)
	s.ingressB = append(s.ingressB, 0)
	s.pauseSent = append(s.pauseSent, false)
}

// Ports returns the switch's ports in index order.
func (s *Switch) Ports() []*Port { return s.ports }

// InstallRoute sets the ECMP egress port set for a destination host.
func (s *Switch) InstallRoute(dst NodeID, portIdx []int) {
	if n := int(dst) + 1; n > len(s.routes) {
		s.routes = append(s.routes, make([][]int, n-len(s.routes))...)
	}
	s.routes[dst] = portIdx
}

// Route returns the ECMP egress port set installed for dst, or nil when
// there is none. The slice may be shared with other destinations
// (topology.Builder installs one slice for a run of equal sets), so it
// is read-only.
func (s *Switch) Route(dst NodeID) []int {
	if uint(dst) >= uint(len(s.routes)) {
		return nil
	}
	return s.routes[dst]
}

// Drops returns the number of packets dropped at this switch.
func (s *Switch) Drops() uint64 { return s.drops }

// RouteErrors returns how many of those drops were packets for a
// destination with no installed route.
func (s *Switch) RouteErrors() uint64 { return s.routeErrs }

// ECNMarked returns the number of packets CE-marked at this switch.
func (s *Switch) ECNMarked() uint64 { return s.ecnMarked }

// PFCFramesSent returns the number of pause/resume frames emitted.
func (s *Switch) PFCFramesSent() uint64 { return s.pfcSent }

// BufferUsed returns the shared-buffer occupancy in bytes.
func (s *Switch) BufferUsed() int64 { return s.used }

// MaxBufferUsed returns the shared-buffer high-water mark.
func (s *Switch) MaxBufferUsed() int64 { return s.maxUsed }

// CheckHeadroom refuses a PFC switch whose shared buffer is below its
// headroom sum: over its ports, 2 × (rate × delay) + 2 largest data
// frames, the bytes an ingress can still receive after it sends a
// pause. The pause threshold reserves none of it, so a smaller buffer
// drops frames under enough fan-in. Clearing the sum is a necessary
// condition for a lossless fabric, not a guarantee.
func (s *Switch) CheckHeadroom() error {
	if !s.cfg.PFCEnabled {
		return nil
	}
	frame := int64(packet.DefaultMTU + packet.HeaderBytes)
	if s.cfg.INTEnabled {
		frame += packet.INTOverhead
	}
	var sum int64
	for _, pt := range s.ports {
		inFlight := int64(float64(pt.rate) * float64(pt.delay) / float64(8*sim.Second))
		sum += 2*inFlight + 2*frame
	}
	if s.cfg.BufferBytes < sum {
		return fmt.Errorf("fabric: PFC switch %d has a %d B buffer, below its headroom sum of %d B "+
			"(2 × rate × delay + 2 frames of %d B per port); clearing that sum is necessary for a lossless fabric, not a guarantee",
			s.id, s.cfg.BufferBytes, sum, frame)
	}
	return nil
}

// ecmpHash deterministically picks among n equal-cost ports based on
// flow identity, so one flow always follows one path (per-flow ECMP).
func ecmpHash(p *packet.Packet, salt NodeID, n int) int {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	mix(uint64(uint32(p.Src)))
	mix(uint64(uint32(p.Dst)))
	mix(uint64(uint32(p.FlowID)))
	mix(uint64(uint32(salt)))
	return int(h % uint64(n))
}

// HandleArrival implements Node. It routes, accounts, marks and
// enqueues, or consumes PFC frames addressed to this hop.
func (s *Switch) HandleArrival(p *packet.Packet, in *Port) {
	if p.Type == packet.PFC {
		// A pause frame from the downstream neighbor: stop/resume our
		// transmitter on that link.
		in.SetPaused(p.PFCPause)
		s.pool.Put(p)
		return
	}

	cand := s.Route(NodeID(p.Dst))
	if len(cand) == 0 {
		s.routeErrs++
		s.drops++
		s.pool.Put(p)
		return
	}
	egIdx := cand[0]
	if len(cand) > 1 {
		egIdx = cand[ecmpHash(p, s.id, len(cand))]
	}
	eg := s.ports[egIdx]
	size := int64(p.Size)

	if p.Type != packet.Data {
		// The control class bypasses shared-buffer accounting (tiny
		// frames, never dropped or paused).
		eg.Enqueue(p, -1)
		return
	}

	// Lossy-mode dynamic egress threshold (paper footnote 6).
	if !s.cfg.PFCEnabled && s.cfg.LossyEgressAlpha > 0 {
		limit := int64(s.cfg.LossyEgressAlpha * float64(s.cfg.BufferBytes-s.used))
		if eg.QueueBytes()+size > limit {
			s.drops++
			s.pool.Put(p)
			return
		}
	}
	// Shared buffer tail drop.
	if s.used+size > s.cfg.BufferBytes {
		s.drops++
		s.pool.Put(p)
		return
	}
	s.used += size
	if s.used > s.maxUsed {
		s.maxUsed = s.used
	}
	inIdx := in.Index()
	s.ingressB[inIdx] += size

	// WRED / ECN marking on the post-enqueue queue depth.
	if s.cfg.ECNEnabled {
		q := eg.QueueBytes() + size
		if q > s.cfg.KMax {
			p.ECNCE = true
			s.ecnMarked++
		} else if q > s.cfg.KMin {
			prob := float64(q-s.cfg.KMin) / float64(s.cfg.KMax-s.cfg.KMin) * PMax
			if s.rng.Float64() < prob {
				p.ECNCE = true
				s.ecnMarked++
			}
		}
	}

	eg.Enqueue(p, inIdx)

	// PFC: pause the upstream if this ingress now exceeds the dynamic
	// threshold.
	if s.cfg.PFCEnabled && !s.pauseSent[inIdx] {
		if s.ingressB[inIdx] > s.pfcThreshold() {
			s.pauseSent[inIdx] = true
			s.sendPFC(in, true)
		}
	}
}

// pfcThreshold returns the current dynamic pause threshold in bytes.
func (s *Switch) pfcThreshold() int64 {
	free := s.cfg.BufferBytes - s.used
	if free < 0 {
		free = 0
	}
	return int64(PFCAlpha * float64(free))
}

func (s *Switch) sendPFC(via *Port, pause bool) {
	f := s.pool.Get()
	f.Type = packet.PFC
	f.Size = packet.CtrlBytes
	f.PFCPause = pause
	s.pfcSent++
	via.Enqueue(f, -1)
}

// OnDequeue implements Node: buffer release, PFC resume checks and INT
// stamping at the egress, in that order.
func (s *Switch) OnDequeue(p *packet.Packet, ingress int, from *Port) {
	if ingress >= 0 {
		size := int64(p.Size)
		s.used -= size
		s.ingressB[ingress] -= size
		if s.cfg.PFCEnabled && s.pauseSent[ingress] {
			resumeAt := s.pfcThreshold() - PFCResumeHysteresis
			if resumeAt < 0 {
				resumeAt = 0
			}
			if s.ingressB[ingress] <= resumeAt {
				s.pauseSent[ingress] = false
				s.sendPFC(s.ports[ingress], false)
			}
		}
	}
	if s.cfg.INTEnabled && p.INT != nil && p.Type == packet.Data {
		hop := packet.Hop{
			B:       from.Rate(),
			TS:      s.eng.Now(),
			TxBytes: from.TxBytes(),
			RxBytes: from.RxQueueBytes(),
			QLen:    from.QueueBytes(),
		}
		if s.cfg.INTQuantize {
			hop = hop.Quantize()
		}
		p.INT.Push(hop, uint16(s.id))
	}
}
