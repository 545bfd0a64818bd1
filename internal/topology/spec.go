package topology

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Spec is a self-describing, buildable topology: every fabric the
// experiments run on — paper presets and user-composed graphs alike —
// is a value implementing this interface, so scenario code needs no
// per-kind switch statements. Each spec resolves its own defaults: a
// zero field means the default its doc names, in every method.
type Spec interface {
	// Validate rejects a spec that would build a fabric with no
	// meaning — too few hosts, a negative rate or delay, a path longer
	// than the INT stack. The other methods assume it passed.
	Validate() error
	// Build constructs the network on eng with shared host/switch
	// configs; Builder.Build derives its base RTT T from the routes.
	Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network
	// Rate returns the host NIC speed — the reference for load targets,
	// ideal FCTs and ECN threshold scaling.
	Rate() sim.Rate
	// NumHosts returns how many hosts Build creates.
	NumHosts() int
}

// nonNegative rejects a negative delay, which schedules deliveries in
// the past, or a negative rate, which builds a fabric that carries
// nothing. names lists the spec's delay field, then its rate fields.
func nonNegative(spec, names string, delay sim.Time, rates ...sim.Rate) error {
	field := strings.Fields(names)
	if delay < 0 {
		return fmt.Errorf("topology: %s.%s: %v is negative", spec, field[0], delay)
	}
	for i, r := range rates {
		if r < 0 {
			return fmt.Errorf("topology: %s.%s: %d bps is negative", spec, field[i+1], r)
		}
	}
	return nil
}

// fitPorts rejects a switch with more ports than packet.MaxPorts, the
// most a port queue can name as a frame's ingress.
func fitPorts(spec string, sw, ports int) error {
	if ports > packet.MaxPorts {
		return fmt.Errorf("topology: %s switch %d has %d ports, want at most %d", spec, sw, ports, packet.MaxPorts)
	}
	return nil
}

// StarSpec is the §5.4 micro-benchmark fixture: N hosts around one
// switch. Defaults: 17 hosts, 100 Gbps, 1 µs links. N is at least 2,
// and no preset takes a negative rate or delay.
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

func (s StarSpec) Validate() error {
	s = s.normalize()
	if s.N < 2 {
		return fmt.Errorf("topology: StarSpec.N: %d hosts, want at least 2", s.N)
	}
	return cmp.Or(nonNegative("StarSpec", "Delay HostRate", s.Delay, s.HostRate), fitPorts("StarSpec", 0, s.N))
}

func (s StarSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s = s.normalize()
	b := NewBuilder(eng, hcfg, scfg)
	sw := b.AddSwitch()
	for i := 0; i < s.N; i++ {
		h := b.AddHost()
		b.Link(h, sw, s.HostRate, s.Delay)
	}
	return b.Build(0)
}

func (s StarSpec) Rate() sim.Rate { return s.normalize().HostRate }

func (s StarSpec) NumHosts() int { return s.normalize().N }

// DumbbellSpec wires Pairs sender hosts and Pairs receiver hosts across
// two switches joined by one CoreRate bottleneck link. Defaults: 1
// pair, 100 Gbps hosts, CoreRate = HostRate, 1 µs links. Pairs ≥ 0.
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

func (s DumbbellSpec) Validate() error {
	s = s.normalize()
	if s.Pairs < 0 {
		return fmt.Errorf("topology: DumbbellSpec.Pairs: %d is negative", s.Pairs)
	}
	return cmp.Or(nonNegative("DumbbellSpec", "Delay HostRate CoreRate", s.Delay, s.HostRate, s.CoreRate),
		fitPorts("DumbbellSpec", 0, s.Pairs+1))
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
	return b.Build(0)
}

func (s DumbbellSpec) Rate() sim.Rate { return s.normalize().HostRate }

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
//
// Defaults: 2 segments, 100 Gbps hosts, CoreRate = HostRate, 1 µs
// links. The long flow crosses Segments+1 switches, each of which
// pushes an INT record onto a packet.MaxHops stack, so Segments is at
// most packet.MaxHops−1.
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

func (s ParkingLotSpec) Validate() error {
	s = s.normalize()
	if s.Segments < 0 {
		return fmt.Errorf("topology: ParkingLotSpec.Segments: %d is negative", s.Segments)
	}
	if s.Segments >= packet.MaxHops {
		return fmt.Errorf("topology: ParkingLotSpec.Segments: %d puts %d switches in line; INT records at most %d hops",
			s.Segments, s.Segments+1, packet.MaxHops)
	}
	return nonNegative("ParkingLotSpec", "Delay HostRate CoreRate", s.Delay, s.HostRate, s.CoreRate)
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
	return b.Build(0)
}

func (s ParkingLotSpec) Rate() sim.Rate { return s.normalize().HostRate }

func (s ParkingLotSpec) NumHosts() int { return 2 + 2*s.normalize().Segments }

// PodSpec describes the paper's 32-server testbed PoD (§5.1): four ToRs
// under one Agg, with each server dual-homed to a ToR pair.
type PodSpec struct {
	// Servers is the total server count: even and ≥ 0. Default 32.
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

func (s PodSpec) normalize() PodSpec {
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
	return s
}

func (s PodSpec) Validate() error {
	s = s.normalize()
	if s.Servers < 0 || s.Servers%2 != 0 {
		return fmt.Errorf("topology: PodSpec.Servers: %d, want an even count ≥ 0", s.Servers)
	}
	return cmp.Or(nonNegative("PodSpec", "LinkDelay HostRate FabricRate", s.LinkDelay, s.HostRate, s.FabricRate),
		fitPorts("PodSpec", 1, s.Servers/2+1)) // a ToR
}

// Build wires the testbed PoD: ToR1+ToR2 serve the first half of the
// servers (each server dual-homed to both), ToR3+ToR4 the second half,
// and all four ToRs uplink to one Agg switch.
func (s PodSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s = s.normalize()
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
	return b.Build(s.BaseRTT())
}

func (s PodSpec) Rate() sim.Rate { return s.normalize().HostRate }

// BaseRTT is the testbed's 9 µs constant (§5.1), the least T that
// Build derives.
func (s PodSpec) BaseRTT() sim.Time { return 9 * sim.Microsecond }

func (s PodSpec) NumHosts() int { return s.normalize().Servers }

// FatTreeSpec describes the simulation topology of §5.1: a three-tier
// Clos with 16 Core and 20 Agg switches over 20 ToRs of 16 servers each
// (320 hosts), 100 Gbps at the host and 400 Gbps between switches, 1 µs
// link delay. Every ToR links to every Agg, so no route climbs to a
// Core: the longest routed path is host–ToR–Agg–ToR–host, 4 links, an
// 8 µs RTT at 1 µs links.
//
// Defaults: a zero shape (all four counts 0) is ScaledFatTree's, the
// CI-sized fabric; 100 Gbps hosts, 400 Gbps fabric, 1 µs links. A
// nonzero shape needs every count ≥ 1 and at least 2 hosts.
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

func (s FatTreeSpec) normalize() FatTreeSpec {
	if s.Cores == 0 && s.Aggs == 0 && s.ToRs == 0 && s.HostsPerToR == 0 {
		d := ScaledFatTree()
		s.Cores, s.Aggs, s.ToRs, s.HostsPerToR = d.Cores, d.Aggs, d.ToRs, d.HostsPerToR
	}
	if s.HostRate == 0 {
		s.HostRate = 100 * sim.Gbps
	}
	if s.FabricRate == 0 {
		s.FabricRate = 400 * sim.Gbps
	}
	if s.LinkDelay == 0 {
		s.LinkDelay = sim.Microsecond
	}
	return s
}

func (s FatTreeSpec) Validate() error {
	s = s.normalize()
	if min(s.Cores, s.Aggs, s.ToRs, s.HostsPerToR) < 1 || s.NumHosts() < 2 {
		return fmt.Errorf("topology: FatTreeSpec{Cores, Aggs, ToRs, HostsPerToR}: %d, %d, %d, %d, want all ≥ 1 with at least 2 hosts, or all 0 for ScaledFatTree's",
			s.Cores, s.Aggs, s.ToRs, s.HostsPerToR)
	}
	return cmp.Or(nonNegative("FatTreeSpec", "LinkDelay HostRate FabricRate", s.LinkDelay, s.HostRate, s.FabricRate),
		// The first Core, Agg and ToR, in Build's order.
		fitPorts("FatTreeSpec", 0, s.Aggs), fitPorts("FatTreeSpec", s.Cores, s.Cores+s.ToRs),
		fitPorts("FatTreeSpec", s.Cores+s.Aggs, s.Aggs+s.HostsPerToR))
}

// NumHosts returns the host count of the spec.
func (s FatTreeSpec) NumHosts() int {
	s = s.normalize()
	return s.ToRs * s.HostsPerToR
}

// Build wires the Clos: every ToR links to every Agg, every Agg to
// every Core, hosts under their ToR. No route uses a Core link.
func (s FatTreeSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Network {
	s = s.normalize()
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
	return b.Build(s.BaseRTT())
}

func (s FatTreeSpec) Rate() sim.Rate { return s.normalize().HostRate }

// BaseRTT is the simulation fabric's 13 µs constant (§5.1), the least
// T that Build derives.
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
// replayed through Builder, with ECMP shortest-path routing and the
// base RTT computed at Build like every preset. The zero value is an
// empty graph; add nodes with AddHost/AddSwitch and wire them with Link.
type GraphSpec struct {
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

// Link wires a full-duplex link between two previously added nodes. A
// zero rate means 100 Gbps and a zero delay 1 µs.
func (g *GraphSpec) Link(a, b GraphNode, rate sim.Rate, delay sim.Time) {
	if rate == 0 {
		rate = 100 * sim.Gbps
	}
	if delay == 0 {
		delay = sim.Microsecond
	}
	g.Links = append(g.Links, GraphLink{A: a, B: b, Rate: rate, Delay: delay})
}

// Validate needs at least 2 hosts and 1 link, every link between two
// distinct nodes this graph added at a positive rate with no negative
// delay, no switch with more than packet.MaxPorts links, and every host
// joined to every other through switches alone, on each of its links,
// no more than packet.MaxHops switches apart: hosts do not forward, and
// each switch on a path pushes one INT record.
func (g GraphSpec) Validate() error {
	if g.Hosts < 2 {
		return fmt.Errorf("topology: GraphSpec.Hosts: %d, want at least 2", g.Hosts)
	}
	if len(g.Links) == 0 {
		return fmt.Errorf("topology: GraphSpec.Links: none, want at least 1")
	}
	for i, l := range g.Links {
		for _, n := range [2]GraphNode{l.A, l.B} {
			limit, kind := g.Hosts, "host"
			if n.Switch {
				limit, kind = g.Switches, "switch"
			}
			if n.Index < 0 || n.Index >= limit {
				return fmt.Errorf("topology: GraphSpec.Links[%d]: %s %d of %d is not in the graph", i, kind, n.Index, limit)
			}
		}
		if l.A == l.B {
			return fmt.Errorf("topology: GraphSpec.Links[%d]: links %+v to itself", i, l.A)
		}
		if l.Rate <= 0 || l.Delay < 0 {
			return fmt.Errorf("topology: GraphSpec.Links[%d]: rate %d bps, delay %v, want a positive rate and no negative delay", i, l.Rate, l.Delay)
		}
	}
	// A host may send on any of its links, so each must lead to every
	// other host: a switch link through switches alone, within
	// packet.MaxHops switches (each pushes one INT record); a host link
	// only to that host. A switch's hop count to a host is the number
	// of switches on its shortest path there. Hosts are nodes
	// 0..Hosts-1 and switches follow, as Build numbers them.
	node := func(v GraphNode) fabric.NodeID {
		if v.Switch {
			return fabric.NodeID(g.Hosts + v.Index)
		}
		return fabric.NodeID(v.Index)
	}
	adj := make([][]edge, g.Hosts+g.Switches)
	for _, l := range g.Links {
		a, b := node(l.A), node(l.B)
		adj[a] = append(adj[a], edge{peer: b})
		adj[b] = append(adj[b], edge{peer: a})
	}
	for sw, links := range adj[g.Hosts:] {
		if err := fitPorts("GraphSpec", sw, len(links)); err != nil {
			return err
		}
	}
	unreached := append(slices.Repeat([]int32{-2}, g.Hosts), slices.Repeat([]int32{-1}, g.Switches)...)
	dist, queue := make([]int32, len(adj)), []fabric.NodeID(nil)
	for dst := 0; dst < g.Hosts; dst++ {
		queue = hops(adj, unreached, fabric.NodeID(dst), dist, queue)
		for src, links := range adj[:g.Hosts] {
			if src == dst {
				continue
			}
			if len(links) == 0 {
				return fmt.Errorf("topology: GraphSpec host %d has no link", src)
			}
			for _, e := range links {
				switch to := int(e.peer); {
				case to == dst: // a direct link
				case to < g.Hosts:
					return fmt.Errorf("topology: GraphSpec host %d links to host %d, which cannot forward to host %d", src, to, dst)
				case dist[to] < 0:
					return fmt.Errorf("topology: GraphSpec hosts %d and %d are not joined through switches", src, dst)
				case dist[to] > packet.MaxHops:
					return fmt.Errorf("topology: GraphSpec hosts %d and %d are %d switches apart; INT records at most %d hops", src, dst, dist[to], packet.MaxHops)
				}
			}
		}
	}
	return nil
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
	return b.Build(0)
}

// Rate returns the fastest link adjacent to a host.
func (g GraphSpec) Rate() sim.Rate {
	var fastest sim.Rate
	for _, l := range g.Links {
		if !l.A.Switch || !l.B.Switch {
			fastest = max(fastest, l.Rate)
		}
	}
	return fastest
}
