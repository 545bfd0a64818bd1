package topology

import (
	"fmt"
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

// routedOneWay walks the switches' installed routes and returns the
// slowest one-way propagation delay a frame meets between two hosts of
// nw, over every link of the source and every ECMP choice on the way.
func routedOneWay(t *testing.T, nw *Network) sim.Time {
	t.Helper()
	var worst sim.Time
	for _, dst := range nw.Hosts {
		// after[sw] is the slowest delay from sw to dst.
		after := map[*fabric.Switch]sim.Time{}
		var leave func(p *fabric.Port) sim.Time
		leave = func(p *fabric.Port) sim.Time {
			sw, ok := p.Peer().(*fabric.Switch)
			if !ok {
				if p.Peer().ID() != dst.ID() {
					t.Fatalf("a frame to host %d enters host %d", dst.ID(), p.Peer().ID())
				}
				return p.Delay()
			}
			if d, ok := after[sw]; ok {
				return p.Delay() + d
			}
			route := sw.Route(dst.ID())
			if len(route) == 0 {
				t.Fatalf("switch %d has no route to host %d", sw.ID(), dst.ID())
			}
			var d sim.Time
			for _, i := range route {
				d = max(d, leave(sw.Ports()[i]))
			}
			after[sw] = d
			return p.Delay() + d
		}
		for _, src := range nw.Hosts {
			if src == dst {
				continue
			}
			for _, p := range src.Ports() {
				worst = max(worst, leave(p))
			}
		}
	}
	return worst
}

// exampleGraph is the root package's ExampleCustom fabric with its
// host rate and link delay as parameters: two racks of 4 hosts under
// ToRs dual-homed to two spines, and a 2-host storage rack under spine
// 0 only.
func exampleGraph(rate sim.Rate, delay sim.Time) GraphSpec {
	var g GraphSpec
	spine0, spine1 := g.AddSwitch(), g.AddSwitch()
	for r := 0; r < 2; r++ {
		tor := g.AddSwitch()
		g.Link(tor, spine0, 400*sim.Gbps, delay)
		g.Link(tor, spine1, 400*sim.Gbps, delay)
		for i := 0; i < 4; i++ {
			g.Link(g.AddHost(), tor, rate, delay)
		}
	}
	storTor := g.AddSwitch()
	g.Link(storTor, spine0, 400*sim.Gbps, delay)
	for i := 0; i < 2; i++ {
		g.Link(g.AddHost(), storTor, rate, delay)
	}
	return g
}

// T (§5.1: "slightly greater than the maximum RTT") covers twice the
// slowest routed one-way delay on every preset and the custom example,
// at any link delay and host rate; at the default delays it is the
// value every golden was cut with.
func TestBaseRTTCoversRoutedPaths(t *testing.T) {
	us, ns := sim.Microsecond, sim.Nanosecond
	paper := func(rate sim.Rate, delay sim.Time) FatTreeSpec {
		s := PaperFatTree()
		s.HostRate, s.LinkDelay = rate, delay
		return s
	}
	for _, delay := range []sim.Time{200 * ns, 0, 5 * us} {
		for _, rate := range []sim.Rate{25 * sim.Gbps, 100 * sim.Gbps, 400 * sim.Gbps} {
			for _, c := range []struct {
				name string
				spec Spec
				want sim.Time // at the default delay
			}{
				{"star", StarSpec{HostRate: rate, Delay: delay}, 4*us + 500*ns},
				{"dumbbell", DumbbellSpec{Pairs: 2, HostRate: rate, Delay: delay}, 6*us + 500*ns},
				{"parkinglot-2", ParkingLotSpec{HostRate: rate, Delay: delay}, 2*(2+2)*us + 500*ns},
				{"parkinglot-4", ParkingLotSpec{Segments: 4, HostRate: rate, Delay: delay}, 2*(4+2)*us + 500*ns},
				{"pod", PodSpec{HostRate: rate, LinkDelay: delay}, 9 * us},
				{"scaled-fattree", FatTreeSpec{HostRate: rate, LinkDelay: delay}, 13 * us},
				{"paper-fattree", paper(rate, delay), 13 * us},
				{"custom-example", exampleGraph(rate, delay), 8*us + 500*ns},
			} {
				name := fmt.Sprintf("%s delay %v rate %d Gbps", c.name, delay, rate/sim.Gbps)
				nw := c.spec.Build(sim.NewEngine(), hcfg(), scfg())
				if need := 2 * routedOneWay(t, nw); nw.BaseRTT < need {
					t.Errorf("%s: T = %v, below twice the slowest routed one-way delay %v", name, nw.BaseRTT, need)
				}
				if delay == 0 && nw.BaseRTT != c.want {
					t.Errorf("%s: T = %v, want %v", name, nw.BaseRTT, c.want)
				}
				for _, h := range nw.Hosts {
					if got := h.Config().BaseRTT; got != nw.BaseRTT {
						t.Fatalf("%s: host %d has T = %v, network %v", name, h.ID(), got, nw.BaseRTT)
					}
				}
			}
		}
	}
}
