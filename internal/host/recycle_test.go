package host_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hpcc/internal/experiment"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
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

// keepNet is a topology spec that remembers the network it built, so a
// test can look at the hosts after experiment.RunLoad returns.
type keepNet struct {
	topology.Spec
	nw **topology.Network
}

func (k keepNet) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *topology.Network {
	*k.nw = k.Spec.Build(eng, hcfg, scfg)
	return *k.nw
}

// A sharded run recycles like a serial one: with bounded retention the
// 2-shard run yields the serial run's records and counters, every host
// ends with the free lists the serial run left it, those lists are in
// use, and nothing on them is still live.
func TestShardedRunRecycles(t *testing.T) {
	type freeLens struct{ flows, recvs int }
	for _, scheme := range []string{"hpcc", "dcqcn"} {
		run := func(shards int) (*experiment.LoadResult, []freeLens) {
			var nw *topology.Network
			s := starScenario(t, scheme, host.GoBackN, 1)
			s.Topo = keepNet{s.Topo, &nw}
			s.Shards = shards
			r, err := experiment.RunLoad(s)
			if err != nil {
				t.Fatal(err)
			}
			if r.Shards != shards {
				t.Fatalf("%s: asked for %d engines, ran on %d", scheme, shards, r.Shards)
			}
			sort.Slice(r.FCT.Records, func(i, j int) bool {
				a, b := r.FCT.Records[i], r.FCT.Records[j]
				if a.Size != b.Size {
					return a.Size < b.Size
				}
				return a.FCT < b.FCT
			})
			var free []freeLens
			for _, h := range nw.Hosts {
				if err := h.AuditFreeLists(); err != nil {
					t.Fatalf("%s on %d engines: %v", scheme, shards, err)
				}
				flows, recvs := h.FreeListLens()
				free = append(free, freeLens{flows, recvs})
			}
			return r, free
		}
		want, wantFree := run(1)
		got, gotFree := run(2)
		if len(want.FCT.Records) < 5000 || want.Drops == 0 {
			t.Fatalf("%s: serial run finished %d flows with %d drops: want a busy, lossy run", scheme, len(want.FCT.Records), want.Drops)
		}
		if !reflect.DeepEqual(got.FCT.Records, want.FCT.Records) || got.DataPackets != want.DataPackets ||
			got.PortPackets != want.PortPackets || got.Drops != want.Drops {
			t.Fatalf("%s: 2 shards diverged from serial: %d/%d flows, %d/%d data pkts, %d/%d port pkts, %d/%d drops",
				scheme, len(got.FCT.Records), len(want.FCT.Records), got.DataPackets, want.DataPackets,
				got.PortPackets, want.PortPackets, got.Drops, want.Drops)
		}
		if !reflect.DeepEqual(gotFree, wantFree) {
			t.Fatalf("%s: per-host free lists (flows, recvs) are %v on 2 shards, %v serial", scheme, gotFree, wantFree)
		}
		for i, f := range gotFree {
			if f.flows == 0 || f.recvs == 0 {
				t.Fatalf("%s: host %d ended a 2-shard run with free lists %+v: nothing was recycled", scheme, i, f)
			}
		}
	}
}
