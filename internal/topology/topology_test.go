package topology

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hpcc/internal/cc"
	"hpcc/internal/cc/dcqcn"
	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

func hcfg() host.Config {
	return host.Config{
		CC:      hpcccc.New(hpcccc.Config{}),
		INT:     true,
		BaseRTT: 13 * sim.Microsecond,
	}
}

func scfg() fabric.SwitchConfig {
	return fabric.SwitchConfig{INTEnabled: true, PFCEnabled: true}
}

func TestStarRoutes(t *testing.T) {
	eng := sim.NewEngine()
	nw := StarSpec{N: 4}.Build(eng, hcfg(), scfg())
	if len(nw.Hosts) != 4 || len(nw.Switches) != 1 {
		t.Fatalf("star: %d hosts, %d switches", len(nw.Hosts), len(nw.Switches))
	}
	for _, h := range nw.Hosts {
		ports := nw.Switches[0].Route(h.ID())
		if len(ports) != 1 {
			t.Fatalf("switch route to host %d = %v", h.ID(), ports)
		}
	}
}

func TestStarEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	nw := StarSpec{N: 4}.Build(eng, hcfg(), scfg())
	f := nw.StartFlow(0, 3, 100_000, nil)
	eng.Run()
	if !f.Done() {
		t.Fatal("flow did not complete on star")
	}
}

func TestDumbbellBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	nw := DumbbellSpec{Pairs: 2}.Build(eng, hcfg(), scfg())
	if len(nw.Hosts) != 4 || len(nw.Switches) != 2 {
		t.Fatalf("dumbbell: %d hosts, %d switches", len(nw.Hosts), len(nw.Switches))
	}
	// Cross flows traverse the core link.
	f1 := nw.StartFlow(0, 2, 200_000, nil)
	f2 := nw.StartFlow(1, 3, 200_000, nil)
	eng.Run()
	if !f1.Done() || !f2.Done() {
		t.Fatal("dumbbell flows did not complete")
	}
}

func TestPodShape(t *testing.T) {
	eng := sim.NewEngine()
	nw := PodSpec{}.Build(eng, hcfg(), scfg())
	if len(nw.Hosts) != 32 {
		t.Fatalf("pod hosts = %d, want 32", len(nw.Hosts))
	}
	if len(nw.Switches) != 5 {
		t.Fatalf("pod switches = %d, want 5 (1 Agg + 4 ToR)", len(nw.Switches))
	}
	for i, h := range nw.Hosts {
		if len(h.Ports()) != 2 {
			t.Fatalf("host %d has %d ports, want 2 (dual-homed)", i, len(h.Ports()))
		}
	}
}

func TestPodCrossRackFlow(t *testing.T) {
	eng := sim.NewEngine()
	nw := PodSpec{}.Build(eng, hcfg(), scfg())
	// Host 0 is in the ToR1/ToR2 half; host 31 in ToR3/ToR4: the flow
	// crosses the Agg.
	f := nw.StartFlow(0, 31, 500_000, nil)
	// And an intra-rack flow.
	g := nw.StartFlow(1, 2, 500_000, nil)
	eng.Run()
	if !f.Done() || !g.Done() {
		t.Fatal("pod flows did not complete")
	}
	if nw.TotalDrops() != 0 {
		t.Fatalf("drops = %d", nw.TotalDrops())
	}
}

func TestFatTreeShape(t *testing.T) {
	eng := sim.NewEngine()
	spec := ScaledFatTree()
	nw := spec.Build(eng, hcfg(), scfg())
	if len(nw.Hosts) != spec.NumHosts() {
		t.Fatalf("hosts = %d, want %d", len(nw.Hosts), spec.NumHosts())
	}
	wantSw := spec.Cores + spec.Aggs + spec.ToRs
	if len(nw.Switches) != wantSw {
		t.Fatalf("switches = %d, want %d", len(nw.Switches), wantSw)
	}
	// Every ToR must have ECMP routes (multiple Agg uplinks) to hosts
	// in other racks.
	tor := nw.Switches[spec.Cores+spec.Aggs] // first ToR
	remote := nw.Hosts[len(nw.Hosts)-1]      // host in the last rack
	ports := tor.Route(remote.ID())
	if len(ports) != spec.Aggs {
		t.Fatalf("ToR ECMP set to remote host = %d ports, want %d", len(ports), spec.Aggs)
	}
}

func TestFatTreeCrossRackFlow(t *testing.T) {
	eng := sim.NewEngine()
	nw := ScaledFatTree().Build(eng, hcfg(), scfg())
	f := nw.StartFlow(0, len(nw.Hosts)-1, 300_000, nil)
	eng.Run()
	if !f.Done() {
		t.Fatal("cross-rack flow did not complete")
	}
}

func TestFatTreeManyFlows(t *testing.T) {
	eng := sim.NewEngine()
	nw := ScaledFatTree().Build(eng, hcfg(), scfg())
	var done int
	n := len(nw.Hosts)
	for i := 0; i < n; i++ {
		dst := (i + n/2) % n
		nw.StartFlow(i, dst, 100_000, func(*host.Flow) { done++ })
	}
	eng.Run()
	if done != n {
		t.Fatalf("completed %d/%d flows", done, n)
	}
	if nw.TotalDrops() != 0 {
		t.Fatalf("drops = %d with PFC on", nw.TotalDrops())
	}
}

func TestMultiHomedFlowsPinPorts(t *testing.T) {
	eng := sim.NewEngine()
	nw := PodSpec{}.Build(eng, hcfg(), scfg())
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		nw.StartFlow(0, 31, 1000, nil)
	}
	eng.Run()
	for _, p := range nw.Hosts[0].Ports() {
		seen[p.PacketsSent()] = true
		if p.PacketsSent() == 0 {
			t.Fatal("one uplink of a dual-homed host never used across 16 flows")
		}
	}
	_ = seen
	_ = cc.Unlimited
}

// An INT-free scheme never allocates an INT stack. After a lossy DCQCN
// incast on the FatTree (data, ACKs, NACKs, CNPs and drops) the pool
// holds no stacked frame, so a GetINT falls through to the heap; the
// same run under HPCC leaves stacked frames to recycle.
func TestINTFreeSchemeNeverAllocatesStack(t *testing.T) {
	for _, c := range []struct {
		name string
		cc   cc.Factory
		int  bool
	}{
		{"dcqcn", dcqcn.New(dcqcn.Config{}), false},
		{"hpcc", hpcccc.New(hpcccc.Config{}), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			pool := packet.NewPool()
			eng := sim.NewEngine()
			hc := host.Config{CC: c.cc, INT: c.int, BaseRTT: 13 * sim.Microsecond, Pool: pool}
			sc := fabric.SwitchConfig{INTEnabled: c.int, ECNEnabled: true, LossyEgressAlpha: 1, BufferBytes: 512 << 10}
			nw := ScaledFatTree().Build(eng, hc, sc)
			done := 0
			for i := 1; i < len(nw.Hosts); i++ {
				nw.StartFlow(i, 0, 200_000, func(*host.Flow) { done++ })
			}
			eng.Run()
			if done != len(nw.Hosts)-1 || nw.TotalDrops() == 0 || pool.Recycled() == 0 {
				t.Fatalf("%d/%d flows done, %d drops, %d frames recycled; want all, some, some",
					done, len(nw.Hosts)-1, nw.TotalDrops(), pool.Recycled())
			}
			before := pool.Allocated()
			pool.GetINT()
			if fresh := pool.Allocated() > before; fresh == c.int {
				t.Fatalf("GetINT after the run allocated: %v, want %v", fresh, !c.int)
			}
		})
	}
}

// A network's pool gets back every frame it hands out. Each run is a
// 31-to-1 incast of 200 KB flows that ends frames at switches as well
// as hosts — drops under DCQCN go-back-N and HPCC IRN, PFC frames under
// HPCC with PFC — and is run until the engine is empty. The free lists
// must then hold exactly the frames the pool carved: one fewer is a
// frame lost, one more a frame Put twice. With PFC on and a buffer
// above the ToR's headroom sum, nothing may drop.
func TestPoolRecoversEveryFrame(t *testing.T) {
	for _, c := range []struct {
		name     string
		hc       host.Config
		sc       fabric.SwitchConfig
		lossless bool // PFC with a buffer above the headroom sum: 0 drops
	}{
		{"dcqcn-gbn",
			host.Config{CC: dcqcn.New(dcqcn.Config{})},
			fabric.SwitchConfig{ECNEnabled: true, LossyEgressAlpha: 1, BufferBytes: 512 << 10}, false},
		{"hpcc-irn",
			host.Config{CC: hpcccc.New(hpcccc.Config{}), INT: true, FlowCtl: host.IRN},
			fabric.SwitchConfig{INTEnabled: true, ECNEnabled: true, LossyEgressAlpha: 1, BufferBytes: 512 << 10}, false},
		// 512 KB is below a ScaledFatTree ToR's headroom sum, ≈ 627 KB of
		// 2·(rate × delay) + 2 frames per ingress port, which PFC does not
		// reserve: this run pauses and still drops, and go-back-N recovers.
		{"hpcc-pfc",
			host.Config{CC: hpcccc.New(hpcccc.Config{}), INT: true},
			fabric.SwitchConfig{INTEnabled: true, ECNEnabled: true, PFCEnabled: true, BufferBytes: 512 << 10}, false},
		{"hpcc-pfc-1mb",
			host.Config{CC: hpcccc.New(hpcccc.Config{}), INT: true},
			fabric.SwitchConfig{INTEnabled: true, ECNEnabled: true, PFCEnabled: true, BufferBytes: 1 << 20}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			pool := packet.NewPool()
			c.hc.BaseRTT, c.hc.Pool = 13*sim.Microsecond, pool
			eng := sim.NewEngine()
			nw := ScaledFatTree().Build(eng, c.hc, c.sc)
			done := 0
			for i := 1; i < len(nw.Hosts); i++ {
				nw.StartFlow(i, 0, 200_000, func(*host.Flow) { done++ })
			}
			eng.Run()
			var pfc uint64
			for _, s := range nw.Switches {
				pfc += s.PFCFramesSent()
			}
			if done != len(nw.Hosts)-1 || (c.sc.PFCEnabled && pfc == 0) || (!c.sc.PFCEnabled && nw.TotalDrops() == 0) {
				t.Fatalf("%d/%d flows done, %d drops, %d PFC frames; want all, and drops or PFC frames as the run is lossy or not",
					done, len(nw.Hosts)-1, nw.TotalDrops(), pfc)
			}
			if c.lossless && nw.TotalDrops() != 0 {
				t.Fatalf("PFC on a %d KB buffer dropped %d frames, want 0", c.sc.BufferBytes>>10, nw.TotalDrops())
			}
			if pool.Free() != pool.Allocated() {
				t.Fatalf("free lists hold %d frames, the pool carved %d", pool.Free(), pool.Allocated())
			}
		})
	}
}

// links lists every port of a built network, hosts first, as
// "rate/delay", so two networks built alike print alike.
func links(nw *Network) string {
	var b strings.Builder
	for _, h := range nw.Hosts {
		for _, p := range h.Ports() {
			fmt.Fprintf(&b, "h%d/%v ", p.Rate(), p.Delay())
		}
	}
	for _, s := range nw.Switches {
		for _, p := range s.Ports() {
			fmt.Fprintf(&b, "s%d/%v ", p.Rate(), p.Delay())
		}
	}
	return b.String()
}

// A zero FatTree shape is ScaledFatTree's, whatever rates are set, and
// every spec's Rate and NumHosts describe what Build builds: the rate
// of every host link and the host count.
func TestSpecsDescribeWhatTheyBuild(t *testing.T) {
	if got, want := links(FatTreeSpec{}.Build(sim.NewEngine(), hcfg(), scfg())),
		links(ScaledFatTree().Build(sim.NewEngine(), hcfg(), scfg())); got != want {
		t.Fatalf("FatTreeSpec{} builds\n%s\nScaledFatTree() builds\n%s", got, want)
	}
	var g GraphSpec
	sw := g.AddSwitch()
	g.Link(g.AddHost(), sw, 0, 0)
	g.Link(g.AddHost(), sw, 25*sim.Gbps, 0)
	for _, spec := range []Spec{
		StarSpec{}, StarSpec{N: 3, HostRate: 25 * sim.Gbps},
		DumbbellSpec{}, DumbbellSpec{Pairs: 2, HostRate: 40 * sim.Gbps},
		ParkingLotSpec{}, ParkingLotSpec{HostRate: 25 * sim.Gbps},
		PodSpec{}, PodSpec{Servers: 4, HostRate: 50 * sim.Gbps},
		FatTreeSpec{}, FatTreeSpec{HostRate: 25 * sim.Gbps}, PaperFatTree(),
		g,
	} {
		nw := spec.Build(sim.NewEngine(), hcfg(), scfg())
		if len(nw.Hosts) != spec.NumHosts() {
			t.Errorf("%+v: NumHosts %d, built %d hosts", spec, spec.NumHosts(), len(nw.Hosts))
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
		var fastest sim.Rate
		for _, h := range nw.Hosts {
			for _, p := range h.Ports() {
				fastest = max(fastest, p.Rate())
			}
		}
		if fastest != spec.Rate() {
			t.Errorf("%+v: Rate %d, fastest host link built at %d", spec, spec.Rate(), fastest)
		}
	}
	if n := (FatTreeSpec{}).NumHosts(); n != 32 {
		t.Errorf("FatTreeSpec{} has %d hosts, want ScaledFatTree's 32", n)
	}
}

// Validate rejects every spec that would build a fabric with no
// meaning; each error names the spec and the field.
func TestValidateRejects(t *testing.T) {
	chain := func(switches int) GraphSpec {
		var g GraphSpec
		prev := g.AddHost()
		for i := 0; i < switches; i++ {
			sw := g.AddSwitch()
			g.Link(prev, sw, 0, 0)
			prev = sw
		}
		g.Link(prev, g.AddHost(), 0, 0)
		return g
	}
	if err := chain(packet.MaxHops).Validate(); err != nil {
		t.Fatalf("a %d-switch chain: %v", packet.MaxHops, err)
	}
	oneHost := chain(1)
	oneHost.Hosts = 1
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{StarSpec{N: 1}, "StarSpec.N"},
		{StarSpec{N: -3}, "StarSpec.N"},
		{StarSpec{Delay: -sim.Microsecond}, "StarSpec.Delay"},
		{StarSpec{HostRate: -sim.Gbps}, "StarSpec.HostRate"},
		{DumbbellSpec{Pairs: -1}, "DumbbellSpec.Pairs"},
		{DumbbellSpec{CoreRate: -sim.Gbps}, "DumbbellSpec.CoreRate"},
		{ParkingLotSpec{Segments: -1}, "ParkingLotSpec.Segments"},
		{ParkingLotSpec{Segments: packet.MaxHops}, "ParkingLotSpec.Segments"},
		{ParkingLotSpec{Delay: -sim.Microsecond}, "ParkingLotSpec.Delay"},
		{PodSpec{Servers: 3}, "PodSpec.Servers"},
		{PodSpec{Servers: -2}, "PodSpec.Servers"},
		{PodSpec{LinkDelay: -sim.Microsecond}, "PodSpec.LinkDelay"},
		{FatTreeSpec{Cores: 2}, "FatTreeSpec"},
		{FatTreeSpec{Cores: 2, ToRs: 2, HostsPerToR: 2}, "FatTreeSpec"},
		{FatTreeSpec{Cores: 1, Aggs: 1, ToRs: 1, HostsPerToR: 1}, "FatTreeSpec"},
		{FatTreeSpec{FabricRate: -400 * sim.Gbps}, "FatTreeSpec.FabricRate"},
		{GraphSpec{}, "GraphSpec.Hosts"},
		{GraphSpec{Hosts: 2}, "GraphSpec.Links"},
		{oneHost, "GraphSpec.Hosts"},
		{GraphSpec{Hosts: 2, Links: []GraphLink{{A: GraphNode{Index: 0}, B: GraphNode{Switch: true}}}}, "GraphSpec.Links[0]"},
		{GraphSpec{Hosts: 2, Links: []GraphLink{{A: GraphNode{Index: 0}, B: GraphNode{Index: 1}}}}, "GraphSpec.Links[0]"},
		{GraphSpec{Hosts: 2, Links: []GraphLink{{A: GraphNode{Index: 0}, B: GraphNode{Index: 1}, Rate: -sim.Gbps}}}, "GraphSpec.Links[0]"},
		{GraphSpec{Hosts: 2, Links: []GraphLink{{A: GraphNode{Index: 0}, B: GraphNode{Index: 1}, Rate: sim.Gbps, Delay: -1}}}, "GraphSpec.Links[0]"},
		{chain(packet.MaxHops + 1), "switches apart"},
	} {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", c.spec, err, c.want)
		}
	}
}

// A switch can have at most packet.MaxPorts ports, the most a port
// queue can name as a frame's ingress. Validate refuses a spec that
// builds a bigger one, naming the switch and its port count; the graph
// is refused before the reachability walk, so nothing here is slow.
func TestValidateRejectsTooManyPorts(t *testing.T) {
	var g GraphSpec
	sw := g.AddSwitch()
	for range packet.MaxPorts + 1 {
		g.Link(g.AddHost(), sw, 0, 0)
	}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{g, "GraphSpec switch 0 has 32768 ports"},
		{StarSpec{N: packet.MaxPorts + 1}, "StarSpec switch 0 has 32768 ports"},
		{DumbbellSpec{Pairs: packet.MaxPorts}, "DumbbellSpec switch 0 has 32768 ports"},
		{PodSpec{Servers: 2 * packet.MaxPorts}, "PodSpec switch 1 has 32768 ports"},
		{FatTreeSpec{Cores: 1, Aggs: 1, ToRs: 2, HostsPerToR: packet.MaxPorts}, "FatTreeSpec switch 2 has 32768 ports"},
		{FatTreeSpec{Cores: 2, Aggs: 1, ToRs: packet.MaxPorts - 1, HostsPerToR: 1}, "FatTreeSpec switch 2 has 32768 ports"},
	} {
		if err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%T: Validate = %v, want an error containing %q", c.spec, err, c.want)
		}
	}
	if err := (StarSpec{N: packet.MaxPorts}).Validate(); err != nil {
		t.Errorf("a star of %d hosts: %v", packet.MaxPorts, err)
	}
}

// Flow IDs are minted once, here: StartFlow's ascend from 1 and
// StartRead's descend from −1, interleaved in any order, and none
// repeats. Hosts rely on it — a QP answers a frame only while its flow
// ID matches.
func TestFlowIDsAreMintedOnce(t *testing.T) {
	eng := sim.NewEngine()
	nw := StarSpec{N: 4}.Build(eng, hcfg(), scfg())
	var flows []int32
	for i := 0; i < 60; i++ {
		if i%3 == 0 {
			nw.StartRead(i%4, (i+1)%4, 2_000, nil)
			continue
		}
		flows = append(flows, nw.StartFlow(i%4, (i+2)%4, 2_000, nil).ID)
	}
	eng.Run()
	var reads []int32
	seen := make(map[int32]bool)
	for _, h := range nw.Hosts {
		for id, f := range h.Flows() {
			if seen[id] || f.ID != id || !f.Done() {
				t.Fatalf("flow %d: seen before %v, keyed as %d, done %v", f.ID, seen[id], id, f.Done())
			}
			seen[id] = true
			if id < 0 {
				reads = append(reads, id)
			}
		}
	}
	slices.Sort(reads)
	for i, id := range flows {
		if id != int32(i+1) {
			t.Fatalf("StartFlow IDs %v, want 1, 2, 3, …", flows)
		}
	}
	for i, id := range reads {
		if id != int32(i-len(reads)) {
			t.Fatalf("StartRead IDs %v, want …, −2, −1", reads)
		}
	}
	if len(seen) != 60 || len(reads) != 20 {
		t.Fatalf("%d distinct IDs (%d READs) for 60 transfers (20 READs)", len(seen), len(reads))
	}
}
