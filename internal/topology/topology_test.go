package topology

import (
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
