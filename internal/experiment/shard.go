package experiment

import (
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// runLoadSharded executes a load scenario across per-partition engines
// with conservative lookahead. It engages only when the run can be
// proven byte-identical to the single-engine execution:
//
//   - the traffic is open-loop, so the full arrival schedule — and the
//     exact flow-ID sequence the lazy single-engine install would
//     assign — is computable up front (workload.PlanArrivals);
//   - the topology splits into ≥2 host clusters joined by positive-
//     delay links (topology.Shard), giving the lookahead;
//   - no streaming observers are attached (their callbacks would
//     otherwise run concurrently on shard goroutines).
//
// Anything else returns !ok and RunLoad falls back to one engine.
//
// The error return carries sim.ShardGroup.RunUntil's: a misconfigured
// group, refused before any engine runs. topology.Shard builds the
// group, so that is a bug in the wiring, not a property of the
// scenario, and it is surfaced rather than hidden by a fallback. A
// panic on a shard goroutine is not recovered: it terminates the
// process.
func runLoadSharded(s LoadScenario) (*LoadResult, bool, error) {
	if s.Obs.OnFlow != nil || s.Obs.OnQueue != nil || s.Obs.OnPFC != nil || s.Obs.OnQueueFlush != nil {
		return nil, false, nil
	}
	for _, g := range s.Traffic {
		if !workload.CanPlan(g) {
			// Cheap refusal before building anything: the fallback path
			// builds its own fabric.
			return nil, false, nil
		}
	}
	rate := s.Topo.Rate()
	baseRTT := s.Topo.BaseRTT()
	eng0 := sim.NewEngine()
	nw := s.build(eng0)
	plan, ok := workload.PlanArrivals(s.Traffic, len(nw.Hosts), workload.Env{
		HostRate: rate,
		Until:    s.Until,
		MaxFlows: s.MaxFlows,
		Seed:     s.Seed,
	})
	if !ok {
		return nil, false, nil
	}
	sh, err := topology.Shard(nw, s.Shards)
	if err != nil {
		return nil, false, nil
	}
	k := len(sh.Engines)

	// Per-shard FCT collection: completion callbacks run on the owning
	// shard's goroutine, so each shard feeds its own set; the sets merge
	// in shard order afterwards. In exact mode merge concatenates
	// records and every consumer of the record list (percentiles,
	// buckets) is order-independent; in sketch mode merge adds bucket
	// counts, which is exact and order-invariant — either way the merged
	// aggregate equals the single-engine one.
	fcts := make([]stats.FCTSet, k)
	if s.SketchStats {
		for i := range fcts {
			fcts[i] = stats.NewStreamingFCT(s.FCTBucketEdges, s.StatsAccuracy)
		}
	}
	dones := make([]func(*host.Flow), k)
	for i := range dones {
		set := &fcts[i]
		dones[i] = func(f *host.Flow) {
			set.Add(stats.FCTRecord{
				Size:  f.Size(),
				FCT:   f.FCT(),
				Ideal: stats.IdealFCT(f.Size(), rate, baseRTT, packet.DefaultMTU, s.Scheme.INT),
			})
		}
	}
	for _, pf := range plan {
		shard := sh.HostShard[pf.Src]
		done := dones[shard]
		if pf.At < 0 {
			// Inline arrival: the lazy install starts it during Install.
			nw.StartFlowID(pf.ID, pf.Src, pf.Dst, pf.Size, done)
			continue
		}
		pf := pf
		start := func() { nw.StartFlowID(pf.ID, pf.Src, pf.Dst, pf.Size, done) }
		// The generator's canonical arrival key fixes the event's
		// position among simultaneous events — the same (time, key)
		// rank the lazy install's chain event carries on one engine.
		sh.Engines[shard].AtKey(pf.At, sim.ArrivalKey(pf.Gen), start)
	}

	// One queue monitor per shard over that shard's edge ports: the
	// same ports sampled at the same instants as the single monitor
	// would, so the pooled sample multiset is identical. The retention
	// cap thins by tick index, which every monitor shares, so it keeps
	// the sharded multiset identical to the single-engine one too.
	edge := nw.EdgePorts()
	mons := make([]*stats.QueueMonitor, k)
	for i := 0; i < k; i++ {
		var ports []*fabric.Port
		for _, p := range edge {
			if sh.NodeShard[p.Owner().ID()] == i {
				ports = append(ports, p)
			}
		}
		mons[i] = stats.NewQueueMonitor(sh.Engines[i], ports, fabric.PrioData, s.QueueSample, s.Until)
		mons[i].SampleCap = s.QueueSampleCap
		if s.SketchStats {
			mons[i].EnableSketch(s.StatsAccuracy)
		}
	}

	if err := sh.Group.RunUntil(s.Until + s.Drain); err != nil {
		return nil, false, err
	}

	res := &LoadResult{Scheme: s.Scheme.Name, Shards: k, Sync: sh.Group.Stats}
	for _, m := range mons {
		m.Stop()
	}
	var queueBytes int64
	if s.SketchStats {
		// Sketch merges are exact bucket-count addition, so the merged
		// queue sketch equals the whole-fabric monitor's.
		for i := 1; i < k; i++ {
			mons[0].MergeSketch(mons[i])
		}
		res.Queue = mons[0].Summary()
		queueBytes = mons[0].RetainedBytes()
	} else {
		var samples []float64
		for _, m := range mons {
			samples = append(samples, m.Samples...)
		}
		res.Queue = stats.Summarize(samples)
		res.QueueKB = make([]float64, len(samples))
		for i, v := range samples {
			res.QueueKB[i] = v / 1024
		}
		queueBytes = int64(len(samples)) * 8
	}
	if s.SketchStats {
		res.FCT = stats.NewStreamingFCT(s.FCTBucketEdges, s.StatsAccuracy)
	}
	for i := range fcts {
		res.FCT.Merge(&fcts[i])
	}
	res.RetainedStatBytes = res.FCT.RetainedBytes() + queueBytes
	collectFabric(res, nw, s.Until+s.Drain)
	collectEngines(res, sh.Engines...)
	res.Elapsed = sh.Engines[0].Now()
	return res, true, nil
}
