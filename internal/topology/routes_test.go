package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// oracleRoutes is the map-based BFS that Builder.Build ran before it
// went dense: adjacency and hop distances in maps keyed by NodeID, a
// fresh queue per destination. It reads adjacency off the wired fabric
// (port i of a node leads to its peer), so it shares no state with
// Build. Hosts do not forward: the search never enters a host but the
// destination it starts from. It returns every switch's ECMP set per
// destination host.
func oracleRoutes(nw *Network) map[fabric.NodeID]map[fabric.NodeID][]int {
	adj := map[fabric.NodeID][]edge{}
	addPorts := func(id fabric.NodeID, ports []*fabric.Port) {
		for i, p := range ports {
			adj[id] = append(adj[id], edge{peer: p.Peer().ID(), port: int32(i)})
		}
	}
	isHost := map[fabric.NodeID]bool{}
	for _, h := range nw.Hosts {
		addPorts(h.ID(), h.Ports())
		isHost[h.ID()] = true
	}
	for _, sw := range nw.Switches {
		addPorts(sw.ID(), sw.Ports())
	}

	routes := map[fabric.NodeID]map[fabric.NodeID][]int{}
	for _, dst := range nw.Hosts {
		dist := map[fabric.NodeID]int{dst.ID(): 0}
		queue := []fabric.NodeID{dst.ID()}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur] {
				if _, seen := dist[e.peer]; !seen && !isHost[e.peer] {
					dist[e.peer] = dist[cur] + 1
					queue = append(queue, e.peer)
				}
			}
		}
		for _, sw := range nw.Switches {
			d, reach := dist[sw.ID()]
			if !reach {
				continue
			}
			var ports []int
			for _, e := range adj[sw.ID()] {
				if pd, ok := dist[e.peer]; ok && pd == d-1 {
					ports = append(ports, int(e.port))
				}
			}
			if len(ports) > 0 {
				if routes[sw.ID()] == nil {
					routes[sw.ID()] = map[fabric.NodeID][]int{}
				}
				routes[sw.ID()][dst.ID()] = ports
			}
		}
	}
	return routes
}

// checkRoutes asserts that Build installed the oracle's port set, in
// the oracle's order, for every switch × host pair, and no route where
// the oracle has none. It returns how many pairs have a route.
func checkRoutes(t *testing.T, name string, nw *Network) int {
	t.Helper()
	want := oracleRoutes(nw)
	routed := 0
	for _, sw := range nw.Switches {
		for _, h := range nw.Hosts {
			got, exp := sw.Route(h.ID()), want[sw.ID()][h.ID()]
			if !slices.Equal(got, exp) || (got == nil) != (exp == nil) {
				t.Fatalf("%s: switch %d route to host %d = %v, oracle %v", name, sw.ID(), h.ID(), got, exp)
			}
			if got != nil {
				routed++
			}
		}
	}
	return routed
}

func TestBuildMatchesOracle(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"star", StarSpec{}},
		{"dumbbell", DumbbellSpec{Pairs: 3}},
		{"parkinglot", ParkingLotSpec{Segments: 3}},
		{"pod", PodSpec{}},
		{"scaled-fattree", ScaledFatTree()},
		{"paper-fattree", PaperFatTree()},
	}
	for _, c := range specs {
		nw := c.spec.Build(sim.NewEngine(), hcfg(), scfg())
		if n := checkRoutes(t, c.name, nw); n != len(nw.Switches)*len(nw.Hosts) {
			t.Fatalf("%s: %d of %d switch × host pairs routed, want all", c.name, n, len(nw.Switches)*len(nw.Hosts))
		}
	}
}

// Every switch a frame crosses pushes one INT record, and a Packet holds
// packet.MaxHops of them. Following the installed routes over every ECMP
// choice, for every host pair, no preset the scenario catalogue builds
// crosses more switches than that. want is the measured maximum; the
// parking lot is the one sweep.go builds.
func TestRegistryPathsFitINTStack(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
		want int
	}{
		{"star", StarSpec{}, 1},
		{"dumbbell", DumbbellSpec{Pairs: 3}, 2},
		{"parkinglot", ParkingLotSpec{Segments: 4}, 5},
		{"pod", PodSpec{}, 3},
		{"scaled-fattree", ScaledFatTree(), 3},
		{"paper-fattree", PaperFatTree(), 3},
	} {
		nw := c.spec.Build(sim.NewEngine(), hcfg(), scfg())
		longest := 0
		for _, dst := range nw.Hosts {
			// switches[sw] is the most switches a frame at sw crosses to
			// reach dst, sw included.
			switches := map[*fabric.Switch]int{}
			var walk func(sw *fabric.Switch) int
			walk = func(sw *fabric.Switch) int {
				if n, ok := switches[sw]; ok {
					return n
				}
				route := sw.Route(dst.ID())
				if len(route) == 0 {
					t.Fatalf("%s: switch %d has no route to host %d", c.name, sw.ID(), dst.ID())
				}
				n := 0
				for _, i := range route {
					switch peer := sw.Ports()[i].Peer().(type) {
					case *fabric.Switch:
						n = max(n, walk(peer))
					default:
						if peer.ID() != dst.ID() {
							t.Fatalf("%s: switch %d forwards to host %d via host %d", c.name, sw.ID(), dst.ID(), peer.ID())
						}
					}
				}
				switches[sw] = n + 1
				return n + 1
			}
			for _, src := range nw.Hosts {
				if src == dst {
					continue
				}
				for _, p := range src.Ports() {
					longest = max(longest, walk(p.Peer().(*fabric.Switch)))
				}
			}
		}
		t.Logf("%s: longest path crosses %d switches (MaxHops %d)", c.name, longest, packet.MaxHops)
		if longest > packet.MaxHops || longest != c.want {
			t.Errorf("%s: longest path crosses %d switches, want %d (MaxHops %d)", c.name, longest, c.want, packet.MaxHops)
		}
	}
}

// randomGraph draws a GraphSpec with two islands that no link joins, a
// host and a switch with no links at all, host–host links (which no
// route may cross) and parallel links.
func randomGraph(rng *rand.Rand) GraphSpec {
	var g GraphSpec
	var nodes []GraphNode
	for i := 1 + rng.Intn(8); i > 0; i-- {
		nodes = append(nodes, g.AddHost())
	}
	for i := 1 + rng.Intn(6); i > 0; i-- {
		nodes = append(nodes, g.AddSwitch())
	}
	island := make(map[GraphNode]int, len(nodes))
	for _, n := range nodes {
		island[n] = rng.Intn(2)
	}
	for i := rng.Intn(3 * len(nodes)); i > 0; i-- {
		a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if a == b || island[a] != island[b] {
			continue
		}
		copies := 1
		if rng.Intn(4) == 0 {
			copies = 2 + rng.Intn(2)
		}
		for ; copies > 0; copies-- {
			g.Link(a, b, 100*sim.Gbps, sim.Microsecond)
		}
	}
	g.AddHost()
	g.AddSwitch()
	return g
}

func TestBuildMatchesOracleRandomGraphs(t *testing.T) {
	var routed, unrouted int
	for seed := int64(1); seed <= 60; seed++ {
		g := randomGraph(rand.New(rand.NewSource(seed)))
		nw := g.Build(sim.NewEngine(), hcfg(), scfg())
		n := checkRoutes(t, fmt.Sprintf("seed %d", seed), nw)
		routed += n
		unrouted += len(nw.Switches)*len(nw.Hosts) - n
	}
	// The graphs must exercise both sides of reachability.
	if routed == 0 || unrouted == 0 {
		t.Fatalf("random graphs routed %d pairs and left %d unrouted; want both > 0", routed, unrouted)
	}
}

// decodeGraph reads a GraphSpec from fuzz bytes: a host count and a
// switch count (0–8 each), then one link per byte pair. A node byte
// names a switch when its low bit is set, else a host, and its
// remaining bits index it modulo one more than the count, so some
// links name a node the graph never added. The top three bits of the
// pair's XOR set the link's delay, 1–8 µs.
func decodeGraph(data []byte) GraphSpec {
	var g GraphSpec
	if len(data) < 2 {
		return g
	}
	g.Hosts, g.Switches = int(data[0]%9), int(data[1]%9)
	node := func(b byte) GraphNode {
		if b&1 == 1 {
			return GraphNode{Switch: true, Index: int(b>>1) % (g.Switches + 1)}
		}
		return GraphNode{Index: int(b>>1) % (g.Hosts + 1)}
	}
	for i := 2; i+1 < len(data) && len(g.Links) < 64; i += 2 {
		a, b := data[i], data[i+1]
		g.Link(node(a), node(b), 0, sim.Microsecond*sim.Time(1+(a^b)>>5))
	}
	return g
}

// FuzzGraphSpec builds arbitrary Custom graphs. Validate must reject the
// graph, or Build must give every host a port, and from every port of
// every host the switches' route sets must reach every other host
// within packet.MaxHops switches without entering a third host (hosts
// do not forward), and T must be twice the slowest delay of any such
// path plus the margin. Seeds live in testdata/fuzz/FuzzGraphSpec.
func FuzzGraphSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		if g.Validate() != nil {
			return
		}
		nw := g.Build(sim.NewEngine(), hcfg(), scfg())
		var slowest sim.Time
		for i, src := range nw.Hosts {
			if len(src.Ports()) == 0 {
				t.Fatalf("%+v: host %d has no port", g, i)
			}
			for _, dst := range nw.Hosts {
				if dst == src {
					continue
				}
				// level holds the switches a frame may be at after
				// crossing hops switches, each with the slowest delay
				// it can have met on the way there.
				level := map[*fabric.Switch]sim.Time{}
				var arrival sim.Time
				enter := func(from fabric.NodeID, at sim.Time, p *fabric.Port) {
					at += p.Delay()
					switch peer := p.Peer().(type) {
					case *fabric.Switch:
						level[peer] = max(level[peer], at)
					default:
						if peer.ID() != dst.ID() {
							t.Fatalf("%+v: a frame from host %d to host %d enters host %d at node %d", g, src.ID(), dst.ID(), peer.ID(), from)
						}
						arrival = max(arrival, at)
					}
				}
				for _, p := range src.Ports() {
					enter(src.ID(), 0, p)
				}
				for hops := 0; len(level) > 0; hops++ {
					if hops == packet.MaxHops {
						t.Fatalf("%+v: a frame from host %d to host %d crosses more than %d switches", g, src.ID(), dst.ID(), packet.MaxHops)
					}
					cur := level
					level = map[*fabric.Switch]sim.Time{}
					for sw, at := range cur {
						route := sw.Route(dst.ID())
						if len(route) == 0 {
							t.Fatalf("%+v: switch %d has no route to host %d", g, sw.ID(), dst.ID())
						}
						for _, i := range route {
							enter(sw.ID(), at, sw.Ports()[i])
						}
					}
				}
				slowest = max(slowest, arrival)
			}
		}
		if want := 2*slowest + rttMargin; nw.BaseRTT != want {
			t.Fatalf("%+v: T = %v, want %v: twice the slowest routed one-way delay, %v, plus the margin", g, nw.BaseRTT, want, slowest)
		}
	})
}

// Building the paper FatTree reuses its BFS scratch across destinations
// and shares equal consecutive ECMP sets, so the build allocates for the
// fabric itself, not for routing (map-based routing took ≈ 90 k objects).
func TestPaperFatTreeBuildAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(2, func() {
		PaperFatTree().Build(sim.NewEngine(), hcfg(), scfg())
	})
	if allocs > 12_000 {
		t.Fatalf("PaperFatTree().Build allocates %.0f objects, want ≤ 12 000", allocs)
	}
}

func BenchmarkPaperFatTreeBuild(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		PaperFatTree().Build(sim.NewEngine(), hcfg(), scfg())
	}
}
