package topology

import (
	"fmt"
	"sort"

	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// Sharding is a built network partitioned across per-shard engines for
// conservative-lookahead parallel execution. Shard 0 keeps the
// network's original engine; every node (and its transmit ports) is
// rebound to its shard's engine and packet pool, and every port whose
// peer lives in another shard ships serialized packets through a
// boundary outbox that the Group's exchange drains — deterministically
// — at each epoch barrier.
type Sharding struct {
	Net     *Network
	Engines []*sim.Engine
	Group   *sim.ShardGroup
	// HostShard maps host index -> shard index.
	HostShard []int
	// NodeShard maps every node ID -> shard index.
	NodeShard map[fabric.NodeID]int
	// Lookahead is the epoch length: the minimum propagation delay of
	// any link crossing a shard boundary.
	Lookahead sim.Time
	// BoundaryPorts counts directed cross-shard transmitters.
	BoundaryPorts int

	outs []*boundary
}

// xpkt is one serialized packet in flight across a shard boundary: the
// frame and its arrival instant at the peer. Nothing about local
// scheduling history rides along — the delivery event's position among
// simultaneous events is fixed by the wire's structural key (the
// canonical (time, key, seq) rank), which is identical to the
// single-engine run by construction.
type xpkt struct {
	p  *packet.Packet
	at sim.Time
}

// boundary is one directed cross-shard link: the sender side appends
// serialized packets to an outbox on its shard's goroutine during an
// epoch; the barrier schedules each as a delivery on the receiver's
// engine under the sender port's wire key — what Port.kick does on a
// local wire — with the boundary itself as the sink.
type boundary struct {
	port *fabric.Port // sender-side transmitter
	eng  *sim.Engine  // receiver shard's engine
	key  uint64       // the sender port's structural wire key
	buf  []xpkt       // sender-side outbox (epoch-local)
}

// Arrive hands a frame that crossed the boundary to the peer node. It
// runs on the receiver's goroutine and reads only the sender port's
// wiring, which is fixed at build time.
//
//hpcclint:alloc-free
func (bd *boundary) Arrive(arg any) {
	bd.port.Peer().HandleArrival(arg.(*packet.Packet), bd.port.PeerPort())
}

// cluster is one unsplittable partition unit: a connected component of
// the node graph under the active link filter (see clusterize).
type cluster struct {
	root  fabric.NodeID
	nodes []fabric.NodeID
	hosts int
}

// exchange drains every boundary outbox into its receiver's engine.
// Scheduling order is irrelevant to results: each delivery carries its
// wire's structural key, so its position among simultaneous events at
// the receiver is the canonical (time, key, seq) rank — the same rank
// the local wire would have used on a single engine. Times ascend
// within an outbox but not from one outbox to the next; the engine's
// best-fit lanes and heap fallback absorb that. Outboxes are still
// drained in boundary creation order to keep the exchange itself a pure
// function of the partition.
func (s *Sharding) exchange(now sim.Time) {
	for _, bd := range s.outs {
		for i, x := range bd.buf {
			bd.eng.Deliver(x.at, bd.key, bd, x.p)
			bd.buf[i].p = nil
		}
		bd.buf = bd.buf[:0]
	}
}

// Shard partitions a freshly built network into (at most) k shards and
// wires the conservative-lookahead machinery. The partition unit is a
// "cluster": a connected component of the node graph with all
// switch-switch links removed — a ToR plus its hosts in a FatTree, a
// ToR pair plus its dual-homed servers in the testbed Pod, one side of
// a dumbbell. Clusters are balanced across shards by host count;
// switch-only clusters (aggs, cores) are placed with the shard they
// share the most links with, cutting boundary traffic versus a blind
// spread.
//
// It must be called before any traffic is installed (flows bind their
// host's engine at start). Shard 0 keeps the network's own engine.
// Errors (no retained builder, a single cluster, a zero-delay boundary
// link) leave the network untouched and usable single-engine.
//
// Determinism: a sharded run is a pure function of (network, k, seed),
// and it replays the single-engine run byte-for-byte — including
// simultaneous deliveries. Every delivery event carries its wire's
// build-time structural key, so the canonical (time, key, seq) rank
// orders same-picosecond deliveries identically on one engine or N
// shards; no execution history (arming order) is consulted.
func Shard(nw *Network, k int) (*Sharding, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: Shard needs k >= 2, got %d", k)
	}
	b := nw.b
	if b == nil {
		return nil, fmt.Errorf("topology: network has no retained builder")
	}

	isHost := make(map[fabric.NodeID]bool, len(nw.Hosts))
	for _, h := range nw.Hosts {
		isHost[h.ID()] = true
	}
	allNodes := make([]fabric.NodeID, 0, len(nw.Hosts)+len(nw.Switches))
	for _, h := range nw.Hosts {
		allNodes = append(allNodes, h.ID())
	}
	for _, sw := range nw.Switches {
		allNodes = append(allNodes, sw.ID())
	}
	sort.Slice(allNodes, func(i, j int) bool { return allNodes[i] < allNodes[j] })

	// Union-find over nodes. With hostLinks, components merge across
	// host-adjacent links — the coarse unit (a ToR plus its hosts).
	// Without, they merge across switch-switch links only: every host
	// stands alone and each switch complex stays whole.
	clusterize := func(hostLinks bool) (hostful, bare []*cluster) {
		parent := make(map[fabric.NodeID]fabric.NodeID)
		var find func(x fabric.NodeID) fabric.NodeID
		find = func(x fabric.NodeID) fabric.NodeID {
			p, ok := parent[x]
			if !ok || p == x {
				parent[x] = x
				return x
			}
			r := find(p)
			parent[x] = r
			return r
		}
		union := func(x, y fabric.NodeID) {
			rx, ry := find(x), find(y)
			if rx != ry {
				if rx > ry { // keep the smallest ID as the root
					rx, ry = ry, rx
				}
				parent[ry] = rx
			}
		}
		for _, id := range allNodes {
			find(id)
			for _, e := range b.adj[id] {
				if (isHost[id] || isHost[e.peer]) == hostLinks {
					union(id, e.peer)
				}
			}
		}
		// Clusters in min-node-ID order, with host counts.
		byRoot := make(map[fabric.NodeID]*cluster)
		var clusters []*cluster
		for _, id := range allNodes {
			r := find(id)
			c := byRoot[r]
			if c == nil {
				c = &cluster{root: r}
				byRoot[r] = c
				clusters = append(clusters, c)
			}
			c.nodes = append(c.nodes, id)
			if isHost[id] {
				c.hosts++
			}
		}
		for _, c := range clusters {
			if c.hosts > 0 {
				hostful = append(hostful, c)
			} else {
				bare = append(bare, c)
			}
		}
		return hostful, bare
	}

	hostful, bare := clusterize(true)
	if len(hostful) < k && len(nw.Hosts) > len(hostful) {
		// Flat fabrics — a Star's single ToR, a Dumbbell's two sides —
		// yield fewer host clusters than shards. Refine to per-host
		// granularity: a shared-buffer switch can never split, but hosts
		// couple only through wires, so any host partition is sound, and
		// the lookahead (the host-switch link delay) stays positive.
		hostful, bare = clusterize(false)
	}
	if len(hostful) < 2 {
		return nil, fmt.Errorf("topology: fabric does not partition (%d host cluster(s))", len(hostful))
	}
	if k > len(hostful) {
		k = len(hostful)
	}

	// Balance hostful clusters greedily (largest first, into the
	// least-loaded shard; all ties broken by order, so the assignment
	// is deterministic). Bare clusters spread round-robin.
	nodeShard := make(map[fabric.NodeID]int, len(allNodes))
	order := make([]*cluster, len(hostful))
	copy(order, hostful)
	sort.SliceStable(order, func(i, j int) bool { return order[i].hosts > order[j].hosts })
	load := make([]int, k)
	for _, c := range order {
		tgt := 0
		for s := 1; s < k; s++ {
			if load[s] < load[tgt] {
				tgt = s
			}
		}
		load[tgt] += c.hosts
		for _, id := range c.nodes {
			nodeShard[id] = tgt
		}
	}
	// Switch-only clusters (aggs, cores) carry no hosts, so host balance
	// does not constrain them. Each goes to the shard it already shares
	// the most links with (ties: the lowest shard) — an agg lands with
	// the pod whose ToRs it serves, and a core follows the aggs it
	// uplinks — cutting boundary links versus a blind round-robin
	// spread. Tiers that only touch other bare switches wait until a
	// pass has placed their neighbors; anything truly disconnected
	// falls back round-robin. Every pass iterates in min-node-ID order
	// over map-free state, so the placement is deterministic.
	pending := bare
	rr := 0
	for len(pending) > 0 {
		var waiting []*cluster
		for _, c := range pending {
			links := make([]int, k)
			seen := false
			for _, id := range c.nodes {
				for _, e := range b.adj[id] {
					if t, ok := nodeShard[e.peer]; ok {
						links[t]++
						seen = true
					}
				}
			}
			if !seen {
				waiting = append(waiting, c)
				continue
			}
			tgt := 0
			for sh := 1; sh < k; sh++ {
				if links[sh] > links[tgt] {
					tgt = sh
				}
			}
			for _, id := range c.nodes {
				nodeShard[id] = tgt
			}
		}
		if len(waiting) == len(pending) { // no progress: isolated tiers
			for _, c := range waiting {
				for _, id := range c.nodes {
					nodeShard[id] = rr % k
				}
				rr++
			}
			break
		}
		pending = waiting
	}

	// Lookahead: the minimum delay of any cross-shard link.
	lookahead := sim.Time(-1)
	for _, id := range allNodes {
		for _, e := range b.adj[id] {
			if nodeShard[id] != nodeShard[e.peer] {
				if lookahead < 0 || e.delay < lookahead {
					lookahead = e.delay
				}
			}
		}
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("topology: zero-delay boundary link; cannot shard conservatively")
	}

	// Engines and per-shard packet pools; rebind every node and port.
	engines := make([]*sim.Engine, k)
	engines[0] = nw.Eng
	for i := 1; i < k; i++ {
		engines[i] = sim.NewEngine()
	}
	pools := make([]*packet.Pool, k)
	for i := range pools {
		pools[i] = packet.NewPool()
	}
	s := &Sharding{
		Net:       nw,
		Engines:   engines,
		HostShard: make([]int, len(nw.Hosts)),
		NodeShard: nodeShard,
		Lookahead: lookahead,
	}
	addBoundary := func(pt *fabric.Port, owner fabric.NodeID) {
		peerShard := nodeShard[pt.Peer().ID()]
		if nodeShard[owner] == peerShard {
			return
		}
		bd := &boundary{port: pt, eng: engines[peerShard], key: pt.WireKey()}
		pt.SetRemote(func(p *packet.Packet, arrive sim.Time) {
			bd.buf = append(bd.buf, xpkt{p, arrive})
		})
		s.outs = append(s.outs, bd)
	}
	for i, h := range nw.Hosts {
		sh := nodeShard[h.ID()]
		s.HostShard[i] = sh
		h.Rebind(engines[sh], pools[sh])
		for _, pt := range h.Ports() {
			pt.Rebind(engines[sh])
			addBoundary(pt, h.ID())
		}
	}
	for _, sw := range nw.Switches {
		sh := nodeShard[sw.ID()]
		sw.Rebind(engines[sh], pools[sh])
		for _, pt := range sw.Ports() {
			pt.Rebind(engines[sh])
			addBoundary(pt, sw.ID())
		}
	}
	s.BoundaryPorts = len(s.outs)
	s.Group = &sim.ShardGroup{Engines: engines, Lookahead: lookahead, Exchange: s.exchange}
	return s, nil
}
