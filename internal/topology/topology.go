// Package topology builds the networks the HPCC paper evaluates on: the
// 32-server dual-homed testbed PoD, the 320-server FatTree used in the
// ns-3 simulations, and the small star / dumbbell fixtures used by the
// micro-benchmarks — all with BFS shortest-path ECMP routing.
package topology

import (
	"fmt"
	"slices"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Network is a built topology ready to carry flows.
type Network struct {
	Eng      *sim.Engine
	Hosts    []*host.Host
	Switches []*fabric.Switch
	// BaseRTT is the network-wide base RTT T that Build derived and
	// handed to every host.
	BaseRTT sim.Time

	nextFlow int32
	nextRead int32 // READ flow IDs run negative to avoid flow-ID collisions
	hostIdx  []int // by NodeID: the node's index in Hosts, -1 for a switch
}

// StartFlow launches a flow of size bytes from host index src to host
// index dst, assigning a network-unique flow ID. Multi-homed hosts pin
// the flow to an uplink by flow-ID hash (as the testbed's dual-homed
// servers do). onDone may be nil.
func (n *Network) StartFlow(src, dst int, size int64, onDone func(*host.Flow)) *host.Flow {
	n.nextFlow++
	h := n.Hosts[src]
	port := 0
	if np := len(h.Ports()); np > 1 {
		port = int(uint32(n.nextFlow) * 2654435761 % uint32(np))
	}
	return h.StartFlow(n.nextFlow, n.Hosts[dst], size, port, onDone)
}

// StartRead issues an RDMA READ (§4.2): host requester pulls size
// bytes from host responder. The response streams back as a data flow
// owned by the responder; onDone fires at the requester once every
// byte has arrived in order. READ flows get network-unique negative
// IDs, so they never collide with StartFlow's positive ones.
func (n *Network) StartRead(requester, responder int, size int64, onDone func()) {
	n.nextRead++
	h := n.Hosts[requester]
	h.Read(-n.nextRead, n.Hosts[responder], size, 0, onDone)
}

// HostIndex maps a host's node ID back to its index in Hosts (-1 for a
// switch).
func (n *Network) HostIndex(id fabric.NodeID) int { return n.hostIdx[id] }

// SwitchPorts enumerates every switch egress port in the network
// (for queue monitoring).
func (n *Network) SwitchPorts() []*fabric.Port {
	var ports []*fabric.Port
	for _, sw := range n.Switches {
		ports = append(ports, sw.Ports()...)
	}
	return ports
}

// EdgePorts enumerates switch egress ports facing hosts — where
// many-to-one congestion concentrates and the paper's queue statistics
// are taken.
func (n *Network) EdgePorts() []*fabric.Port {
	var ports []*fabric.Port
	for _, sw := range n.Switches {
		for _, p := range sw.Ports() {
			if n.hostIdx[p.Peer().ID()] >= 0 {
				ports = append(ports, p)
			}
		}
	}
	return ports
}

// TotalDrops sums packet drops across all switches.
func (n *Network) TotalDrops() uint64 {
	var d uint64
	for _, sw := range n.Switches {
		d += sw.Drops()
	}
	return d
}

// Builder accumulates nodes and links, then computes routing.
type Builder struct {
	eng    *sim.Engine
	hcfg   host.Config
	scfg   fabric.SwitchConfig
	nextID fabric.NodeID
	// nextWire numbers directed ports in Link order — the structural
	// wire key that canonically ranks simultaneous deliveries (see
	// sim.Event.Before). Build-time state only; it never depends on
	// traffic, so every run of the same spec ranks wires identically.
	nextWire uint64

	hosts    []*host.Host
	switches []*fabric.Switch
	// adj[id] lists node id's links as (peer, local port index, delay)
	// in Link order; node IDs are dense, so it is indexed by NodeID.
	adj [][]edge
}

// edge is one link end: 16 bytes, since routing scans every adj list
// once per destination.
type edge struct {
	peer  fabric.NodeID
	port  int32
	delay sim.Time
}

// NewBuilder starts a topology with shared host and switch configs.
// Every node of the network shares one packet pool (the world is
// single-threaded), so frames freed anywhere are reusable everywhere.
func NewBuilder(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *Builder {
	if hcfg.Pool == nil && scfg.Pool == nil {
		pool := packet.NewPool()
		hcfg.Pool = pool
		scfg.Pool = pool
	} else if hcfg.Pool == nil {
		hcfg.Pool = scfg.Pool
	} else if scfg.Pool == nil {
		scfg.Pool = hcfg.Pool
	}
	return &Builder{eng: eng, hcfg: hcfg, scfg: scfg}
}

// AddHost creates a host node.
func (b *Builder) AddHost() *host.Host {
	h := host.New(b.eng, b.nextID, b.hcfg)
	b.nextID++
	b.adj = append(b.adj, nil)
	b.hosts = append(b.hosts, h)
	return h
}

// AddSwitch creates a switch node.
func (b *Builder) AddSwitch() *fabric.Switch {
	cfg := b.scfg
	cfg.Seed ^= int64(b.nextID) // decorrelate WRED streams
	s := fabric.NewSwitch(b.eng, b.nextID, cfg)
	b.nextID++
	b.adj = append(b.adj, nil)
	b.switches = append(b.switches, s)
	return s
}

// Link wires a full-duplex link between two nodes (host or switch).
// Each direction gets the next structural wire key, so delivery events
// are canonically ranked by build order.
func (b *Builder) Link(x, y fabric.Node, rate sim.Rate, delay sim.Time) {
	xi, yi := b.portCount(x), b.portCount(y)
	px, py := fabric.Connect(b.eng, x, y, xi, yi, rate, delay)
	px.SetWireKey(b.nextWire + 1)
	py.SetWireKey(b.nextWire + 2)
	b.nextWire += 2
	b.attach(x, px)
	b.attach(y, py)
	b.adj[x.ID()] = append(b.adj[x.ID()], edge{y.ID(), int32(xi), delay})
	b.adj[y.ID()] = append(b.adj[y.ID()], edge{x.ID(), int32(yi), delay})
}

func (b *Builder) portCount(n fabric.Node) int {
	switch v := n.(type) {
	case *host.Host:
		return len(v.Ports())
	case *fabric.Switch:
		return len(v.Ports())
	default:
		panic(fmt.Sprintf("topology: unknown node type %T", n))
	}
}

func (b *Builder) attach(n fabric.Node, p *fabric.Port) {
	switch v := n.(type) {
	case *host.Host:
		v.AttachPort(p)
	case *fabric.Switch:
		v.AttachPort(p)
	}
}

// rttMargin is what T adds to the slowest routed round trip: §5.1's T
// is "slightly greater than the maximum RTT".
const rttMargin = 500 * sim.Nanosecond

// Build computes shortest-path ECMP routes from every switch to every
// host, derives the base RTT T from them, and returns the finished
// network. A switch's ECMP set for a host lists, in port order, every
// port whose peer is one hop closer to that host. Hosts do not
// forward, so no route passes through one: a path enters a host only
// to end there. Consecutive hosts with an equal set on one switch (a
// remote rack behind the same uplinks) share one slice.
//
// T is twice the slowest one-way propagation delay a frame meets from
// any link of any host to any other host over the installed routes,
// plus rttMargin, and never less than floor. Build hands it to every
// host and records it as Network.BaseRTT.
func (b *Builder) Build(floor sim.Time) *Network {
	n := &Network{
		Eng:      b.eng,
		Hosts:    b.hosts,
		Switches: b.switches,
		hostIdx:  slices.Repeat([]int{-1}, len(b.adj)),
	}
	// unreached is dist before a search: -1 for a switch and -2 for a
	// host, which the search never enters.
	unreached := slices.Repeat([]int32{-1}, len(b.adj))
	for i, h := range b.hosts {
		n.hostIdx[h.ID()] = i
		unreached[h.ID()] = -2
	}
	dist := make([]int32, len(b.adj))     // hops to dst
	worst := make([]sim.Time, len(b.adj)) // slowest routed delay to dst
	queue := make([]fabric.NodeID, 0, len(b.adj))
	last := make([][]int, len(b.switches)) // each switch's latest installed set
	var ports []int
	var oneWay sim.Time
	// BFS from each destination host over the undirected graph, last
	// host first: the first install then sizes each switch's route table
	// in one allocation. Only dst is a host the search reaches.
	for k := len(b.hosts) - 1; k >= 0; k-- {
		dst := b.hosts[k]
		queue = hops(b.adj, unreached, dst.ID(), dist, queue)
		for i, sw := range b.switches {
			d := dist[sw.ID()]
			if d < 0 {
				continue
			}
			ports = ports[:0]
			for _, e := range b.adj[sw.ID()] {
				if dist[e.peer] == d-1 {
					ports = append(ports, int(e.port))
				}
			}
			if !slices.Equal(ports, last[i]) {
				last[i] = slices.Clone(ports)
			}
			sw.InstallRoute(dst.ID(), last[i])
		}
		// A host linked exactly as the previous destination sees the
		// same paths, so its delays need no second pass.
		if k < len(b.hosts)-1 && slices.Equal(b.adj[dst.ID()], b.adj[b.hosts[k+1].ID()]) {
			continue
		}
		for _, id := range queue[1:] { // switches, nearest first
			worst[id] = 0
			for _, e := range b.adj[id] {
				if dist[e.peer] == dist[id]-1 {
					worst[id] = max(worst[id], e.delay+worst[e.peer])
				}
			}
		}
		for _, h := range b.hosts {
			for _, e := range b.adj[h.ID()] {
				if h != dst && dist[e.peer] >= 0 {
					oneWay = max(oneWay, e.delay+worst[e.peer])
				}
			}
		}
	}
	n.BaseRTT = max(floor, 2*oneWay+rttMargin)
	for _, h := range b.hosts {
		h.SetBaseRTT(n.BaseRTT)
	}
	return n
}

// hops fills dist with every node's hop count to dst by a breadth-first
// search over adj, which starts from unreached: -1 for a switch and -2
// for a host. Hosts do not forward, so the search enters no host but
// dst, and a node it never reaches keeps its unreached value. It
// returns queue refilled with dst and then every reached switch,
// nearest first.
func hops(adj [][]edge, unreached []int32, dst fabric.NodeID, dist []int32, queue []fabric.NodeID) []fabric.NodeID {
	copy(dist, unreached)
	dist[dst] = 0
	queue = append(queue[:0], dst)
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, e := range adj[cur] {
			if dist[e.peer] == -1 {
				dist[e.peer] = dist[cur] + 1
				queue = append(queue, e.peer)
			}
		}
	}
	return queue
}
