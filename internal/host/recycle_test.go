package host_test

import (
	"fmt"
	"reflect"
	"testing"

	"hpcc/internal/experiment"
	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/workload"
)

// starRun is everything a run lets an observer see.
type starRun struct {
	Flows       []experiment.FlowEvent
	DataPackets uint64
	PortPackets uint64
	Drops       uint64
	Events      uint64
}

// mostlyTiny is dominated by one- and three-packet flows (the flows
// that recycle fastest) with enough 30–200 KB ones that windows, rates
// and DCQCN's clocks move and the lossy runs drop and recover.
var mostlyTiny = workload.MustCDF("mostly-tiny", []workload.Point{
	{Bytes: 1000, Prob: 0}, {Bytes: 1000, Prob: 0.6}, {Bytes: 3000, Prob: 0.85},
	{Bytes: 30_000, Prob: 0.95}, {Bytes: 200_000, Prob: 1},
})

// starScenario is ≈6800 flows (1700 a host) over Star(4) — mostlyTiny
// at 30 % load plus a 3:1 incast, lossy with a shallow buffer — under
// the given retention window.
func starScenario(t *testing.T, scheme string, fc host.FlowControl, window int) experiment.LoadScenario {
	t.Helper()
	sch, err := experiment.ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return experiment.LoadScenario{
		Scheme: sch,
		Topo:   experiment.StarTopo(4),
		Traffic: []workload.Generator{
			workload.PoissonSpec{CDF: mostlyTiny, Load: 0.3},
			workload.IncastSpec{FanIn: 3, Size: 60_000, LoadFrac: 0.05},
		},
		MaxFlows:        6000,
		Until:           20 * sim.Millisecond,
		Drain:           20 * sim.Millisecond,
		FlowCtl:         fc,
		BufferBytes:     300_000,
		Seed:            3,
		CompletedWindow: window,
	}
}

// runStar runs starScenario on one engine and audits every host's free
// lists at the end. It also returns how many flows each *Flow served on
// average.
func runStar(t *testing.T, scheme string, fc host.FlowControl, window int) (starRun, int) {
	t.Helper()
	var out starRun
	eng := sim.NewEngine()
	s := starScenario(t, scheme, fc, window)
	s.Obs.OnFlow = func(ev experiment.FlowEvent) { out.Flows = append(out.Flows, ev) }
	m := experiment.StartManual(eng, s)
	eng.RunUntil(s.Until + s.Drain)

	nw := m.Network
	started, objects := 0, 0
	for _, h := range nw.Hosts {
		if err := h.AuditFreeLists(); err != nil {
			t.Fatalf("%s/%v window %d: %v", scheme, fc, window, err)
		}
		evicted, pkts := h.EvictedFlows()
		started += evicted + len(h.Flows())
		objects += h.FlowObjects()
		out.DataPackets += pkts
		for _, f := range h.Flows() {
			out.DataPackets += f.PacketsSent()
		}
		for _, p := range h.Ports() {
			out.PortPackets += p.PacketsSent()
		}
	}
	for _, p := range nw.SwitchPorts() {
		out.PortPackets += p.PacketsSent()
	}
	out.Drops = nw.TotalDrops()
	out.Events = eng.Fired()
	return out, started / objects
}

// Recycling is invisible: bounded retention — where every *Flow, CC
// instance and recvState serves dozens of transfers — yields the run
// that unbounded retention (nothing recycled) yields, record for record
// and event for event, for every scheme family and both recovery modes.
func TestRecyclingIsInvisible(t *testing.T) {
	for _, scheme := range []string{"hpcc", "dcqcn", "timely", "dctcp"} {
		for _, fc := range []host.FlowControl{host.GoBackN, host.IRN} {
			t.Run(fmt.Sprintf("%s/%v", scheme, fc), func(t *testing.T) {
				want, _ := runStar(t, scheme, fc, 0)
				if len(want.Flows) < 5000 || want.Drops == 0 {
					t.Fatalf("reference run finished %d flows with %d drops: want a busy, lossy run", len(want.Flows), want.Drops)
				}
				for _, window := range []int{1, 256} {
					got, reuse := runStar(t, scheme, fc, window)
					if window == 1 && reuse < 20 {
						t.Fatalf("window 1: each flow object served %d flows on average, want ≥ 20", reuse)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("window %d diverged from unbounded retention: %d/%d flows, %d/%d data pkts, %d/%d port pkts, %d/%d drops, %d/%d events",
							window, len(got.Flows), len(want.Flows), got.DataPackets, want.DataPackets,
							got.PortPackets, want.PortPackets, got.Drops, want.Drops, got.Events, want.Events)
					}
				}
			})
		}
	}
}
