package topology

import (
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
)

// Spec is a self-describing, buildable topology: every fabric the
// experiments run on — paper presets and user-composed graphs alike —
// is a value implementing this interface, so scenario code needs no
// per-kind switch statements.
type Spec interface {
	// Build constructs the network on eng with shared host/switch
	// configs.
	Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network
	// Rate returns the host NIC speed — the reference for load targets,
	// ideal FCTs and ECN threshold scaling.
	Rate() sim.Rate
	// BaseRTT returns the network-wide base-RTT constant T (§5.1:
	// "slightly greater than the maximum RTT").
	BaseRTT() sim.Time
	// NumHosts returns how many hosts Build creates.
	NumHosts() int
}

const rttMargin = 500 * sim.Nanosecond

// StarSpec is the §5.4 micro-benchmark fixture: N hosts around one
// switch. Defaults: 17 hosts, 100 Gbps, 1 µs links.
type StarSpec struct {
	N        int
	HostRate sim.Rate
	Delay    sim.Time
}

func (s StarSpec) normalize() StarSpec {
	if s.N == 0 {
		s.N = 17
	}
	if s.HostRate == 0 {
		s.HostRate = 100 * sim.Gbps
	}
	if s.Delay == 0 {
		s.Delay = sim.Microsecond
	}
	return s
}

func (s StarSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s = s.normalize()
	b := NewBuilder(eng, hcfg, scfg)
	sw := b.AddSwitch()
	for i := 0; i < s.N; i++ {
		h := b.AddHost()
		b.Link(h, sw, s.HostRate, s.Delay)
	}
	return b.Build()
}

func (s StarSpec) Rate() sim.Rate { return s.normalize().HostRate }

func (s StarSpec) BaseRTT() sim.Time { return 4*s.normalize().Delay + rttMargin }

func (s StarSpec) NumHosts() int { return s.normalize().N }

// DumbbellSpec wires Pairs sender hosts and Pairs receiver hosts across
// two switches joined by one CoreRate bottleneck link.
type DumbbellSpec struct {
	Pairs    int
	HostRate sim.Rate
	CoreRate sim.Rate
	Delay    sim.Time
}

func (s DumbbellSpec) normalize() DumbbellSpec {
	if s.Pairs == 0 {
		s.Pairs = 1
	}
	if s.HostRate == 0 {
		s.HostRate = 100 * sim.Gbps
	}
	if s.CoreRate == 0 {
		s.CoreRate = s.HostRate
	}
	if s.Delay == 0 {
		s.Delay = sim.Microsecond
	}
	return s
}

// Build adds the senders to the left switch and the receivers to the
// right one, in that order.
func (s DumbbellSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s = s.normalize()
	b := NewBuilder(eng, hcfg, scfg)
	left := b.AddSwitch()
	right := b.AddSwitch()
	b.Link(left, right, s.CoreRate, s.Delay)
	for _, sw := range []*fabric.Switch{left, right} {
		for i := 0; i < s.Pairs; i++ {
			h := b.AddHost()
			b.Link(h, sw, s.HostRate, s.Delay)
		}
	}
	return b.Build()
}

func (s DumbbellSpec) Rate() sim.Rate { return s.normalize().HostRate }

// BaseRTT: host–switch–switch–host is three one-way link delays.
func (s DumbbellSpec) BaseRTT() sim.Time { return 6*s.normalize().Delay + rttMargin }

func (s DumbbellSpec) NumHosts() int { return 2 * s.normalize().Pairs }

// ParkingLotSpec is the §3.2/Appendix-A multi-bottleneck chain:
// Segments+1 switches in a line whose inter-switch links run at the
// host rate, a long host pair at the ends whose flow crosses every
// inter-switch link, and one local host pair per segment whose flow
// crosses only that segment.
//
// Host layout: host 0 = long sender, host 1 = long receiver, then for
// segment i (0-based): host 2+2i = local sender (at switch i), host
// 3+2i = local receiver (at switch i+1).
type ParkingLotSpec struct {
	Segments int
	HostRate sim.Rate
	CoreRate sim.Rate
	Delay    sim.Time
}

func (s ParkingLotSpec) normalize() ParkingLotSpec {
	if s.Segments == 0 {
		s.Segments = 2
	}
	if s.HostRate == 0 {
		s.HostRate = 100 * sim.Gbps
	}
	if s.CoreRate == 0 {
		s.CoreRate = s.HostRate
	}
	if s.Delay == 0 {
		s.Delay = sim.Microsecond
	}
	return s
}

func (s ParkingLotSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s = s.normalize()
	b := NewBuilder(eng, hcfg, scfg)
	switches := make([]*fabric.Switch, s.Segments+1)
	for i := range switches {
		switches[i] = b.AddSwitch()
		if i > 0 {
			b.Link(switches[i-1], switches[i], s.CoreRate, s.Delay)
		}
	}
	longSrc := b.AddHost()
	b.Link(longSrc, switches[0], s.HostRate, s.Delay)
	longDst := b.AddHost()
	b.Link(longDst, switches[s.Segments], s.HostRate, s.Delay)
	for i := 0; i < s.Segments; i++ {
		src := b.AddHost()
		b.Link(src, switches[i], s.HostRate, s.Delay)
		dst := b.AddHost()
		b.Link(dst, switches[i+1], s.HostRate, s.Delay)
	}
	return b.Build()
}

func (s ParkingLotSpec) Rate() sim.Rate { return s.normalize().HostRate }

// BaseRTT: the long flow crosses every inter-switch hop plus both host
// links — 2·(Segments+2) one-way link delays, with margin.
func (s ParkingLotSpec) BaseRTT() sim.Time {
	s = s.normalize()
	return 2*sim.Time(s.Segments+2)*s.Delay + rttMargin
}

func (s ParkingLotSpec) NumHosts() int { return 2 + 2*s.normalize().Segments }

// PodSpec describes the paper's 32-server testbed PoD (§5.1): four ToRs
// under one Agg, with each server dual-homed to a ToR pair.
type PodSpec struct {
	// Servers is the total server count; must be even. Default 32.
	Servers int
	// HostRate is each NIC uplink speed. Default 25 Gbps.
	HostRate sim.Rate
	// FabricRate is the ToR–Agg link speed. Default 100 Gbps.
	FabricRate sim.Rate
	// LinkDelay is the per-link propagation delay. Default 600 ns,
	// which lands the base RTTs near the testbed's 5.4 µs intra-rack /
	// 8.5 µs cross-rack figures.
	LinkDelay sim.Time
}

func (s *PodSpec) normalize() {
	if s.Servers == 0 {
		s.Servers = 32
	}
	if s.HostRate == 0 {
		s.HostRate = 25 * sim.Gbps
	}
	if s.FabricRate == 0 {
		s.FabricRate = 100 * sim.Gbps
	}
	if s.LinkDelay == 0 {
		s.LinkDelay = 600 * sim.Nanosecond
	}
}

// Build wires the testbed PoD: ToR1+ToR2 serve the first half of the
// servers (each server dual-homed to both), ToR3+ToR4 the second half,
// and all four ToRs uplink to one Agg switch.
func (s PodSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s.normalize()
	b := NewBuilder(eng, hcfg, scfg)
	agg := b.AddSwitch()
	tors := make([]*fabric.Switch, 4)
	for i := range tors {
		tors[i] = b.AddSwitch()
		b.Link(tors[i], agg, s.FabricRate, s.LinkDelay)
	}
	half := s.Servers / 2
	for i := 0; i < s.Servers; i++ {
		h := b.AddHost()
		pair := 0
		if i >= half {
			pair = 2
		}
		b.Link(h, tors[pair], s.HostRate, s.LinkDelay)
		b.Link(h, tors[pair+1], s.HostRate, s.LinkDelay)
	}
	return b.Build()
}

func (s PodSpec) Rate() sim.Rate {
	if s.HostRate == 0 {
		return 25 * sim.Gbps
	}
	return s.HostRate
}

// BaseRTT is the testbed's 9 µs constant (§5.1).
func (s PodSpec) BaseRTT() sim.Time { return 9 * sim.Microsecond }

func (s PodSpec) NumHosts() int {
	s.normalize()
	return s.Servers
}

// FatTreeSpec describes the simulation topology of §5.1: a three-tier
// Clos with 16 Core and 20 Agg switches over 20 ToRs of 16 servers each
// (320 hosts), 100 Gbps at the host and 400 Gbps between switches, 1 µs
// link delay (12 µs max base RTT). The counts scale down for CI runs.
type FatTreeSpec struct {
	Cores, Aggs, ToRs, HostsPerToR int
	HostRate, FabricRate           sim.Rate
	LinkDelay                      sim.Time
}

// PaperFatTree returns the full-scale spec from §5.1.
func PaperFatTree() FatTreeSpec {
	return FatTreeSpec{
		Cores: 16, Aggs: 20, ToRs: 20, HostsPerToR: 16,
		HostRate: 100 * sim.Gbps, FabricRate: 400 * sim.Gbps,
		LinkDelay: sim.Microsecond,
	}
}

// ScaledFatTree returns a CI-sized FatTree preserving the paper's
// oversubscription shape (same tiers, fewer elements).
func ScaledFatTree() FatTreeSpec {
	return FatTreeSpec{
		Cores: 2, Aggs: 4, ToRs: 4, HostsPerToR: 8,
		HostRate: 100 * sim.Gbps, FabricRate: 400 * sim.Gbps,
		LinkDelay: sim.Microsecond,
	}
}

func (s *FatTreeSpec) normalize() {
	if s.Cores == 0 {
		*s = PaperFatTree()
	}
}

// NumHosts returns the host count of the spec.
func (s FatTreeSpec) NumHosts() int {
	s.normalize()
	return s.ToRs * s.HostsPerToR
}

// Build wires the Clos: every ToR links to every Agg, every Agg to
// every Core, hosts under their ToR.
func (s FatTreeSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s.normalize()
	b := NewBuilder(eng, hcfg, scfg)
	cores := make([]*fabric.Switch, s.Cores)
	for i := range cores {
		cores[i] = b.AddSwitch()
	}
	aggs := make([]*fabric.Switch, s.Aggs)
	for i := range aggs {
		aggs[i] = b.AddSwitch()
		for _, c := range cores {
			b.Link(aggs[i], c, s.FabricRate, s.LinkDelay)
		}
	}
	for t := 0; t < s.ToRs; t++ {
		tor := b.AddSwitch()
		for _, a := range aggs {
			b.Link(tor, a, s.FabricRate, s.LinkDelay)
		}
		for j := 0; j < s.HostsPerToR; j++ {
			h := b.AddHost()
			b.Link(h, tor, s.HostRate, s.LinkDelay)
		}
	}
	return b.Build()
}

func (s FatTreeSpec) Rate() sim.Rate {
	if s.HostRate == 0 {
		return 100 * sim.Gbps
	}
	return s.HostRate
}

// BaseRTT is the simulation fabric's 13 µs constant (§5.1).
func (s FatTreeSpec) BaseRTT() sim.Time { return 13 * sim.Microsecond }

// GraphNode references a node added to a GraphSpec. Hosts and switches
// are numbered independently in add order; the host numbering is the
// built Network's host index.
type GraphNode struct {
	Switch bool
	Index  int
}

// GraphLink is one full-duplex link of a GraphSpec.
type GraphLink struct {
	A, B  GraphNode
	Rate  sim.Rate
	Delay sim.Time
}

// GraphSpec is a user-composed topology: an explicit node/link graph
// replayed through Builder, with ECMP shortest-path routing computed at
// Build like every preset. The zero value is an empty graph; add nodes
// with AddHost/AddSwitch and wire them with Link.
type GraphSpec struct {
	// HostRate, if nonzero, overrides the derived NIC reference rate
	// (the maximum host-adjacent link rate).
	HostRate sim.Rate
	// RTT, if nonzero, overrides the derived base RTT (twice the
	// worst-case host-to-host shortest-path propagation delay, plus
	// margin).
	RTT sim.Time

	Hosts    int
	Switches int
	Links    []GraphLink
}

// AddHost appends a host and returns its reference.
func (g *GraphSpec) AddHost() GraphNode {
	g.Hosts++
	return GraphNode{Index: g.Hosts - 1}
}

// AddSwitch appends a switch and returns its reference.
func (g *GraphSpec) AddSwitch() GraphNode {
	g.Switches++
	return GraphNode{Switch: true, Index: g.Switches - 1}
}

// Link wires a full-duplex link between two previously added nodes.
func (g *GraphSpec) Link(a, b GraphNode, rate sim.Rate, delay sim.Time) {
	g.Links = append(g.Links, GraphLink{A: a, B: b, Rate: rate, Delay: delay})
}

func (g GraphSpec) NumHosts() int { return g.Hosts }

// Build replays the recorded graph through a Builder. Host indices in
// the returned Network match AddHost order.
func (g GraphSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	b := NewBuilder(eng, hcfg, scfg)
	hosts := make([]*host.Host, g.Hosts)
	for i := range hosts {
		hosts[i] = b.AddHost()
	}
	switches := make([]*fabric.Switch, g.Switches)
	for i := range switches {
		switches[i] = b.AddSwitch()
	}
	pick := func(n GraphNode) fabric.Node {
		if n.Switch {
			return switches[n.Index]
		}
		return hosts[n.Index]
	}
	for _, l := range g.Links {
		b.Link(pick(l.A), pick(l.B), l.Rate, l.Delay)
	}
	return b.Build()
}

// Rate returns the explicit HostRate or the maximum link rate adjacent
// to a host (100 Gbps for an empty graph).
func (g GraphSpec) Rate() sim.Rate {
	if g.HostRate != 0 {
		return g.HostRate
	}
	var max sim.Rate
	for _, l := range g.Links {
		if (!l.A.Switch || !l.B.Switch) && l.Rate > max {
			max = l.Rate
		}
	}
	if max == 0 {
		max = 100 * sim.Gbps
	}
	return max
}

// BaseRTT returns the explicit RTT or derives it: twice the largest
// host-to-host shortest-path propagation delay, plus margin — the same
// convention the preset fixtures use.
func (g GraphSpec) BaseRTT() sim.Time {
	if g.RTT != 0 {
		return g.RTT
	}
	// Hosts are nodes 0..Hosts-1, switches follow; links weigh their
	// delay.
	node := func(n GraphNode) int {
		if n.Switch {
			return g.Hosts + n.Index
		}
		return n.Index
	}
	type edge struct {
		to int
		d  sim.Time
	}
	adj := make([][]edge, g.Hosts+g.Switches)
	for _, l := range g.Links {
		a, b := node(l.A), node(l.B)
		adj[a] = append(adj[a], edge{b, l.Delay})
		adj[b] = append(adj[b], edge{a, l.Delay})
	}
	// Dijkstra from each host with an O(V²) extract-min scan: graphs are
	// tiny at build time. dist is -1 until a node is reached.
	dist := make([]sim.Time, len(adj))
	done := make([]bool, len(adj))
	var worst sim.Time
	for h := 0; h < g.Hosts; h++ {
		for i := range dist {
			dist[i], done[i] = -1, false
		}
		dist[h] = 0
		for {
			cur := -1
			for i, d := range dist {
				if d >= 0 && !done[i] && (cur < 0 || d < dist[cur]) {
					cur = i
				}
			}
			if cur < 0 {
				break
			}
			done[cur] = true
			for _, e := range adj[cur] {
				if nd := dist[cur] + e.d; dist[e.to] < 0 || nd < dist[e.to] {
					dist[e.to] = nd
				}
			}
		}
		for _, d := range dist[:g.Hosts] {
			worst = max(worst, d)
		}
	}
	if worst == 0 {
		return 10 * sim.Microsecond
	}
	return 2*worst + rttMargin
}
