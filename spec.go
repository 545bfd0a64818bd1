package hpcc

import (
	"fmt"
	"slices"
	"time"

	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

// Topology describes a simulated fabric as a first-class value: one of
// the paper's presets (Star, Dumbbell, ParkingLot, Pod, FatTree) or a
// user-composed Custom graph. Specs are plain data — compose them into
// an Experiment, or build one directly with Experiment.Start.
//
// The interface is sealed: new fabrics are expressed with Custom, not
// by implementing Topology outside this package.
type Topology interface {
	topoSpec() (topology.Spec, error)
}

func gbps(g, def int) sim.Rate {
	if g == 0 {
		g = def
	}
	return sim.Rate(g) * sim.Gbps
}

func delayOr(d, def time.Duration) sim.Time {
	if d == 0 {
		d = def
	}
	return toSim(d)
}

// checkLinks rejects a negative link rate, which builds a fabric that
// carries nothing, and a negative link delay, which schedules
// deliveries in the past.
func checkLinks(kind string, delay time.Duration, rates ...int) error {
	if slices.Min(rates) < 0 {
		return fmt.Errorf("hpcc: %s link rates %v Gbps include a negative one", kind, rates)
	}
	if delay < 0 {
		return fmt.Errorf("hpcc: %s link delay %v is negative", kind, delay)
	}
	return nil
}

// Star is the §5.4 micro-benchmark fixture: Hosts servers around one
// switch. Defaults: 17 hosts, 100 Gbps, 1 µs links.
type Star struct {
	Hosts        int
	LinkRateGbps int
	LinkDelay    time.Duration
}

func (s Star) topoSpec() (topology.Spec, error) {
	if s.Hosts < 0 || s.Hosts == 1 {
		return nil, fmt.Errorf("hpcc: Star needs at least 2 hosts, got %d", s.Hosts)
	}
	if err := checkLinks("Star", s.LinkDelay, s.LinkRateGbps); err != nil {
		return nil, err
	}
	return topology.StarSpec{
		N:        s.Hosts,
		HostRate: gbps(s.LinkRateGbps, 100),
		Delay:    delayOr(s.LinkDelay, time.Microsecond),
	}, nil
}

// Dumbbell wires Pairs sender hosts and Pairs receiver hosts across two
// switches joined by one bottleneck link of CoreRateGbps (defaults to
// the host rate).
type Dumbbell struct {
	Pairs        int
	HostRateGbps int
	CoreRateGbps int
	LinkDelay    time.Duration
}

func (s Dumbbell) topoSpec() (topology.Spec, error) {
	if s.Pairs < 0 {
		return nil, fmt.Errorf("hpcc: Dumbbell needs a nonnegative pair count, got %d", s.Pairs)
	}
	if err := checkLinks("Dumbbell", s.LinkDelay, s.HostRateGbps, s.CoreRateGbps); err != nil {
		return nil, err
	}
	hostRate := gbps(s.HostRateGbps, 100)
	coreRate := hostRate
	if s.CoreRateGbps != 0 {
		coreRate = gbps(s.CoreRateGbps, 0)
	}
	return topology.DumbbellSpec{
		Pairs:    s.Pairs,
		HostRate: hostRate,
		CoreRate: coreRate,
		Delay:    delayOr(s.LinkDelay, time.Microsecond),
	}, nil
}

// ParkingLot is the §3.2/Appendix-A multi-bottleneck chain: Segments+1
// switches in a line whose inter-switch links run at the host rate, a
// "long" host pair at the two ends whose flow crosses every segment,
// and one local host pair per segment. Host layout: host 0 = long
// sender, host 1 = long receiver, then for segment i host 2+2i is the
// local sender at switch i and host 3+2i the local receiver at switch
// i+1. Defaults: 2 segments, 100 Gbps, 1 µs links. The long flow
// crosses Segments+1 switches, each of which pushes an INT record onto a
// 5-hop stack, so Segments is at most 4.
type ParkingLot struct {
	Segments     int
	LinkRateGbps int
	LinkDelay    time.Duration
}

func (s ParkingLot) topoSpec() (topology.Spec, error) {
	if s.Segments < 0 {
		return nil, fmt.Errorf("hpcc: ParkingLot needs a nonnegative segment count, got %d", s.Segments)
	}
	if s.Segments >= packet.MaxHops {
		return nil, fmt.Errorf("hpcc: ParkingLot with %d segments has %d switches in line; INT records at most %d hops", s.Segments, s.Segments+1, packet.MaxHops)
	}
	if err := checkLinks("ParkingLot", s.LinkDelay, s.LinkRateGbps); err != nil {
		return nil, err
	}
	rate := gbps(s.LinkRateGbps, 100)
	return topology.ParkingLotSpec{
		Segments: s.Segments,
		HostRate: rate,
		CoreRate: rate,
		Delay:    delayOr(s.LinkDelay, time.Microsecond),
	}, nil
}

// Pod is the paper's 32-server dual-homed testbed PoD (§5.1): four
// ToRs under one Agg, every server dual-homed to a ToR pair. Defaults
// match the testbed (32 servers, 25 Gbps NICs, 100 Gbps fabric links).
type Pod struct {
	Servers        int // must be even; default 32
	HostRateGbps   int // default 25
	FabricRateGbps int // default 100
	LinkDelay      time.Duration
}

func (s Pod) topoSpec() (topology.Spec, error) {
	if s.Servers%2 != 0 || s.Servers < 0 {
		return nil, fmt.Errorf("hpcc: Pod needs an even server count, got %d", s.Servers)
	}
	if err := checkLinks("Pod", s.LinkDelay, s.HostRateGbps, s.FabricRateGbps); err != nil {
		return nil, err
	}
	spec := topology.PodSpec{Servers: s.Servers}
	if s.HostRateGbps != 0 {
		spec.HostRate = gbps(s.HostRateGbps, 0)
	}
	if s.FabricRateGbps != 0 {
		spec.FabricRate = gbps(s.FabricRateGbps, 0)
	}
	if s.LinkDelay != 0 {
		spec.LinkDelay = toSim(s.LinkDelay)
	}
	return spec, nil
}

// FatTree is the §5.1 three-tier Clos. With all four counts zero it is
// the CI-scaled fabric (same shape, fewer elements); otherwise every
// count must be at least 1. PaperFatTree returns the full 320-host
// spec.
type FatTree struct {
	Cores, Aggs, ToRs, HostsPerToR int
	HostRateGbps                   int // default 100
	FabricRateGbps                 int // default 400
	LinkDelay                      time.Duration
}

// PaperFatTree is the full-scale simulation fabric of §5.1: 16 Cores,
// 20 Aggs, 20 ToRs × 16 servers (320 hosts).
func PaperFatTree() FatTree {
	return FatTree{Cores: 16, Aggs: 20, ToRs: 20, HostsPerToR: 16}
}

// ScaledFatTree is the CI-sized FatTree preserving the paper's
// oversubscription shape.
func ScaledFatTree() FatTree {
	return FatTree{Cores: 2, Aggs: 4, ToRs: 4, HostsPerToR: 8}
}

func (s FatTree) topoSpec() (topology.Spec, error) {
	shape := FatTree{Cores: s.Cores, Aggs: s.Aggs, ToRs: s.ToRs, HostsPerToR: s.HostsPerToR}
	if shape == (FatTree{}) {
		shape = ScaledFatTree()
	}
	if min(shape.Cores, shape.Aggs, shape.ToRs, shape.HostsPerToR) < 1 {
		return nil, fmt.Errorf("hpcc: FatTree counts (%d cores, %d aggs, %d ToRs, %d hosts per ToR) must all be at least 1, or all 0 for the scaled preset", s.Cores, s.Aggs, s.ToRs, s.HostsPerToR)
	}
	if err := checkLinks("FatTree", s.LinkDelay, s.HostRateGbps, s.FabricRateGbps); err != nil {
		return nil, err
	}
	return topology.FatTreeSpec{
		Cores: shape.Cores, Aggs: shape.Aggs, ToRs: shape.ToRs, HostsPerToR: shape.HostsPerToR,
		HostRate:   gbps(s.HostRateGbps, 100),
		FabricRate: gbps(s.FabricRateGbps, 400),
		LinkDelay:  delayOr(s.LinkDelay, time.Microsecond),
	}, nil
}

// Node references a host or switch added to a Custom topology.
type Node struct {
	sw  bool
	idx int
}

// IsSwitch reports whether the node is a switch.
func (n Node) IsSwitch() bool { return n.sw }

// Index returns the node's number among its kind, in add order. For
// hosts this is the host index used by traffic specs and StartFlow.
func (n Node) Index() int { return n.idx }

// Custom composes an arbitrary fabric from hosts, switches and links —
// the public face of the internal topology builder. Add nodes, wire
// them, and use the value anywhere a Topology is accepted; shortest-
// path ECMP routes are computed at build time exactly as for the
// presets.
//
//	var c hpcc.Custom
//	tor0, tor1 := c.AddSwitch(), c.AddSwitch()
//	spine := c.AddSwitch()
//	c.Link(tor0, spine, 400, time.Microsecond)
//	c.Link(tor1, spine, 400, time.Microsecond)
//	for i := 0; i < 8; i++ {
//		c.Link(c.AddHost(), tor0, 100, time.Microsecond)
//		c.Link(c.AddHost(), tor1, 100, time.Microsecond)
//	}
//
// Host indices follow AddHost order. BaseRTT defaults to twice the
// worst host-to-host shortest-path propagation delay (plus margin);
// set it explicitly for fabrics where serialization dominates.
type Custom struct {
	// BaseRTT overrides the derived network-wide base RTT constant T.
	BaseRTT time.Duration
	// HostRateGbps overrides the derived NIC reference rate (the
	// fastest host-adjacent link), used for load targets and ideal
	// FCTs.
	HostRateGbps int

	graph topology.GraphSpec
}

// AddHost adds a server and returns its reference.
func (c *Custom) AddHost() Node {
	g := c.graph.AddHost()
	return Node{idx: g.Index}
}

// AddSwitch adds a switch and returns its reference.
func (c *Custom) AddSwitch() Node {
	g := c.graph.AddSwitch()
	return Node{sw: true, idx: g.Index}
}

// Link wires a full-duplex link of rateGbps and one-way propagation
// delay between two nodes.
func (c *Custom) Link(a, b Node, rateGbps int, delay time.Duration) {
	c.graph.Link(
		topology.GraphNode{Switch: a.sw, Index: a.idx},
		topology.GraphNode{Switch: b.sw, Index: b.idx},
		gbps(rateGbps, 100), delayOr(delay, time.Microsecond),
	)
}

// NumHosts returns the number of hosts added so far.
func (c *Custom) NumHosts() int { return c.graph.Hosts }

func (c *Custom) topoSpec() (topology.Spec, error) {
	if c.graph.Hosts < 2 {
		return nil, fmt.Errorf("hpcc: Custom topology needs at least 2 hosts, got %d", c.graph.Hosts)
	}
	if len(c.graph.Links) == 0 {
		return nil, fmt.Errorf("hpcc: Custom topology has no links")
	}
	for i, l := range c.graph.Links {
		for _, n := range [2]topology.GraphNode{l.A, l.B} {
			limit, kind := c.graph.Hosts, "host"
			if n.Switch {
				limit, kind = c.graph.Switches, "switch"
			}
			if n.Index < 0 || n.Index >= limit {
				return nil, fmt.Errorf("hpcc: Custom link %d references %s %d of %d — use Nodes returned by AddHost/AddSwitch on this Custom", i, kind, n.Index, limit)
			}
		}
		if l.Rate <= 0 {
			return nil, fmt.Errorf("hpcc: Custom link %d has non-positive rate", i)
		}
		if l.Delay < 0 {
			return nil, fmt.Errorf("hpcc: Custom link %d has negative delay", i)
		}
	}
	if src, dst, n := longestPath(c.graph); n > packet.MaxHops {
		return nil, fmt.Errorf("hpcc: Custom hosts %d and %d are %d switches apart; INT records at most %d hops", src, dst, n, packet.MaxHops)
	}
	g := c.graph
	if c.BaseRTT != 0 {
		g.RTT = toSim(c.BaseRTT)
	}
	if c.HostRateGbps != 0 {
		g.HostRate = gbps(c.HostRateGbps, 0)
	}
	return g, nil
}

// longestPath returns the connected host pair whose shortest path
// crosses the most switches, and that count. Paths are hop counts over
// every node, the metric Build's ECMP routing minimizes; each switch on
// the way pushes one INT record.
func longestPath(g topology.GraphSpec) (src, dst, switches int) {
	// Hosts are nodes 0..Hosts-1, switches follow.
	node := func(n topology.GraphNode) int {
		if n.Switch {
			return g.Hosts + n.Index
		}
		return n.Index
	}
	adj := make([][]int, g.Hosts+g.Switches)
	for _, l := range g.Links {
		a, b := node(l.A), node(l.B)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	dist := make([]int, len(adj))
	queue := make([]int, 0, len(adj))
	for h := 0; h < g.Hosts; h++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[h] = 0
		queue = append(queue[:0], h)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			if cur < g.Hosts && dist[cur]-1 > switches {
				src, dst, switches = h, cur, dist[cur]-1
			}
			for _, nb := range adj[cur] {
				if dist[nb] < 0 {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
	}
	return src, dst, switches
}
