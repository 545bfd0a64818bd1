package experiment

import (
	"hpcc/internal/cc/dcqcn"
	"hpcc/internal/fabric"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// Fig01Result substitutes for the paper's Figure 1, which plots
// *production* measurements of PFC pause propagation. We reproduce the
// phenomenon inside the simulated PoD: sustained incast under DCQCN
// triggers pauses that propagate from the receiver's ToR up through
// the Agg and back down to innocent hosts, suppressing send capacity.
type Fig01Result struct {
	// PauseTimeByTier is the fraction of paused (port × time) by
	// transmitter class, tracing propagation depth:
	//   agg->tor:  depth 1 (receiver's ToR paused its Agg uplink feed)
	//   tor->agg:  depth 2 (the Agg paused ToR uplinks)
	//   host->tor: depth 3 (ToRs paused host NICs — senders silenced)
	PauseTimeByTier map[string]float64
	// SuppressedBandwidthFrac is host-uplink pause time × NIC rate over
	// total host capacity × duration — Figure 1b's "suppressed
	// bandwidth".
	SuppressedBandwidthFrac float64
	PFCFrames               uint64
	Drops                   uint64
}

// Fig01 drives the PoD with background load plus a sustained heavy
// incast under aggressively-tuned DCQCN.
func Fig01(dur sim.Time, seed int64) *Fig01Result {
	if dur == 0 {
		dur = 20 * sim.Millisecond
	}
	eng := sim.NewEngine()
	nw := StartManual(eng, LoadScenario{
		Scheme: DCQCN(dcqcn.Config{RateIncTimer: 55 * sim.Microsecond, MinDecGap: 50 * sim.Microsecond}),
		Topo:   topology.PodSpec{},
		Traffic: []workload.Generator{
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.3, MaxFlows: 100_000},
			workload.IncastSpec{FanIn: 16, Size: 500_000, LoadFrac: 0.10},
		},
		Until: dur,
		PFC:   true,
		// A small buffer makes pauses propagate visibly at CI scale.
		BufferBytes: 2 << 20,
		Seed:        seed,
	}).Network
	eng.RunUntil(dur + 10*sim.Millisecond)

	res := &Fig01Result{PauseTimeByTier: map[string]float64{}}
	// Switch 0 is the Agg, 1..4 the ToRs (builder order in Pod).
	agg := nw.Switches[0]
	var aggTor, torAgg, hostTor []*fabric.Port
	for _, sw := range nw.Switches {
		for _, p := range sw.Ports() {
			if sw == agg {
				aggTor = append(aggTor, p)
			} else if p.Peer() == agg {
				torAgg = append(torAgg, p)
			}
		}
		res.PFCFrames += sw.PFCFramesSent()
	}
	for _, h := range nw.Hosts {
		hostTor = append(hostTor, h.Ports()...)
	}
	pause := func(ports []*fabric.Port) float64 { return stats.PFCPauseFraction(ports, eng.Now()) }
	res.PauseTimeByTier["agg->tor"] = pause(aggTor)
	res.PauseTimeByTier["tor->agg"] = pause(torAgg)
	res.PauseTimeByTier["host->tor"] = pause(hostTor)
	res.SuppressedBandwidthFrac = res.PauseTimeByTier["host->tor"]
	res.Drops = nw.TotalDrops()
	return res
}

// Table renders the substitution study.
func (r *Fig01Result) Table() *Table {
	t := &Table{
		Title: "Figure 1 (substitution): PFC pause propagation under incast storms (DCQCN, PoD)",
		Cols:  []string{"pause class", "paused-time-frac(%)"},
	}
	// tor->host is omitted: hosts never emit pauses (they are the
	// receivers), so that class is structurally zero.
	for _, class := range []string{"agg->tor", "tor->agg", "host->tor"} {
		t.AddRow(class, f2(r.PauseTimeByTier[class]*100))
	}
	t.AddNote("host->tor pauses silence senders: suppressed bandwidth %.2f%% of capacity (paper Fig 1b: up to 25%%)", r.SuppressedBandwidthFrac*100)
	t.AddNote("%d PFC frames; %d drops; paper Fig 1a: ~10%% of pauses propagate 3 hops", r.PFCFrames, r.Drops)
	return t
}
