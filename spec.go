package hpcc

import (
	"time"

	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

// Topology describes a simulated fabric as a first-class value: one of
// the paper's presets (Star, Dumbbell, ParkingLot, Pod, FatTree) or a
// user-composed Custom graph. Specs are plain data — compose them into
// an Experiment, or build one directly with Experiment.Start.
//
// Each spec only converts units (Gbps, time.Duration) into the internal
// topology spec it stands for; that spec resolves the defaults named
// here and its validation rejects a value out of range, so
// Experiment.Run and Start return the error before anything is built.
//
// The interface is sealed: new fabrics are expressed with Custom, not
// by implementing Topology outside this package.
type Topology interface {
	topoSpec() topology.Spec
}

// toRate converts a link rate in Gbps to the simulator's bits per second.
func toRate(g int) sim.Rate { return sim.Rate(g) * sim.Gbps }

// Star is the §5.4 micro-benchmark fixture: Hosts servers around one
// switch. Defaults: 17 hosts, 100 Gbps, 1 µs links.
type Star struct {
	Hosts        int
	LinkRateGbps int
	LinkDelay    time.Duration
}

func (s Star) topoSpec() topology.Spec {
	return topology.StarSpec{N: s.Hosts, HostRate: toRate(s.LinkRateGbps), Delay: toSim(s.LinkDelay)}
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

func (s Dumbbell) topoSpec() topology.Spec {
	return topology.DumbbellSpec{
		Pairs:    s.Pairs,
		HostRate: toRate(s.HostRateGbps),
		CoreRate: toRate(s.CoreRateGbps),
		Delay:    toSim(s.LinkDelay),
	}
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

func (s ParkingLot) topoSpec() topology.Spec {
	return topology.ParkingLotSpec{Segments: s.Segments, HostRate: toRate(s.LinkRateGbps), Delay: toSim(s.LinkDelay)}
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

func (s Pod) topoSpec() topology.Spec {
	return topology.PodSpec{
		Servers:    s.Servers,
		HostRate:   toRate(s.HostRateGbps),
		FabricRate: toRate(s.FabricRateGbps),
		LinkDelay:  toSim(s.LinkDelay),
	}
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
func PaperFatTree() FatTree { return shape(topology.PaperFatTree()) }

// ScaledFatTree is the CI-sized FatTree preserving the paper's
// oversubscription shape: 2 Cores, 4 Aggs, 4 ToRs × 8 servers.
func ScaledFatTree() FatTree { return shape(topology.ScaledFatTree()) }

// shape is the FatTree with s's counts and default links.
func shape(s topology.FatTreeSpec) FatTree {
	return FatTree{Cores: s.Cores, Aggs: s.Aggs, ToRs: s.ToRs, HostsPerToR: s.HostsPerToR}
}

func (s FatTree) topoSpec() topology.Spec {
	return topology.FatTreeSpec{
		Cores: s.Cores, Aggs: s.Aggs, ToRs: s.ToRs, HostsPerToR: s.HostsPerToR,
		HostRate:   toRate(s.HostRateGbps),
		FabricRate: toRate(s.FabricRateGbps),
		LinkDelay:  toSim(s.LinkDelay),
	}
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
// path ECMP routes and the base RTT T are computed at build time
// exactly as for the presets.
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
// Host indices follow AddHost order. The NIC reference rate, used for
// load targets and ideal FCTs, is the fastest host-adjacent link. T is
// twice the slowest one-way propagation delay between two hosts over
// the routes frames take, plus 0.5 µs (Network.BaseRTT reports it).
type Custom struct {
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
// delay between two nodes; a zero rate means 100 Gbps and a zero delay
// 1 µs.
func (c *Custom) Link(a, b Node, rateGbps int, delay time.Duration) {
	c.graph.Link(
		topology.GraphNode{Switch: a.sw, Index: a.idx},
		topology.GraphNode{Switch: b.sw, Index: b.idx},
		toRate(rateGbps), toSim(delay),
	)
}

// NumHosts returns the number of hosts added so far.
func (c *Custom) NumHosts() int { return c.graph.Hosts }

func (c *Custom) topoSpec() topology.Spec { return c.graph }
