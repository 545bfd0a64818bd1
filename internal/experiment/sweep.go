package experiment

import (
	"fmt"

	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// The "extra" family holds scenarios beyond the paper's figures,
// registered through the same interface as every reproduction job.
func init() {
	Register(Scenario{
		Name:  "extra-fbsweep",
		Order: 130,
		Title: "FB_Hadoop load sweep 30/50/70% on the FatTree (HPCC vs DCQCN)",
		Run:   func(p Params) []*Table { return sweepTables(SweepFBHadoop(p.Fat, p.scale())) },
	})
	Register(Scenario{
		Name:  "extra-parkinglot",
		Order: 131,
		Title: "six-scheme comparison on an oversubscribed parking-lot chain",
		Run:   func(p Params) []*Table { return parkingLotTables(ParkingLotCompare(p.scale())) },
	})
}

// SweepFBHadoop is the FB_Hadoop load sweep: the Figure-11 workload on
// the FatTree at 30/50/70% load (rows) for HPCC and DCQCN (columns),
// mapping where each scheme's tails blow up — the scenario-diversity
// axis PCC-style evaluations argue for.
func SweepFBHadoop(spec topology.FatTreeSpec, sc Scale) *Grid[*LoadResult] {
	sc.normalize(400)
	spec = fatTreeOrScaled(spec)
	loads := []float64{0.3, 0.5, 0.7}
	schemes := []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")}
	return runGrid(loadLabels("%.0f", loads...), schemeLabels(schemes), func(r, c int) LoadScenario {
		return sc.fatTree(schemes[c], spec, workload.PoissonSpec{CDF: workload.FBHadoop(), Load: loads[r]})
	}, mustRunLoad)
}

// sweepTables renders the sweep: one row per load × scheme.
func sweepTables(g *Grid[*LoadResult]) []*Table {
	t := &Table{
		Title: "Extra: FB_Hadoop load sweep on the FatTree",
		Cols:  []string{"load(%)", "scheme", "sd-p50", "sd-p95", "sd-p99", "p95-lat-short(us)", "q-p99(KB)", "pause-frac(%)", "censored"},
	}
	for r, load := range g.Rows {
		for c, s := range g.Cols {
			lr := g.Results[r][c]
			t.AddRow(
				load, s,
				f2(lr.FCT.SlowdownQuantile(50)), f2(lr.FCT.SlowdownQuantile(95)), f2(lr.FCT.SlowdownQuantile(99)),
				f1(lr.ShortFlowP95Latency(7_000)),
				f1(lr.Queue.P99/1024),
				f2(lr.PauseFrac*100),
				fmt.Sprintf("%d", lr.Censored))
			t.AddDist(fmt.Sprintf("slowdown %s @%s%%", s, load), lr.FCT.SlowdownSketch(0))
		}
	}
	t.AddNote("same FB_Hadoop + FatTree fixture as Figure 11, swept past the paper's 50%% operating point")
	return []*Table{t}
}

// parkingLotSegments is the length of the parking-lot chain.
const parkingLotSegments = 4

// ParkingLotCompare is the six-scheme comparison of Figure 11 moved
// onto the oversubscribed parking-lot chain: the Figure-11 schemes
// (columns) under FB_Hadoop at 50% load (the one row). Inter-switch
// links run at the host rate, so background flows contend on every
// segment they cross instead of inside a non-blocking fabric.
func ParkingLotCompare(sc Scale) *Grid[*LoadResult] {
	sc.normalize(400)
	schemes := Fig11Schemes()
	return runGrid([]string{"FB_Hadoop 50%"}, schemeLabels(schemes), func(_, c int) LoadScenario {
		return sc.load(schemes[c], ParkingLotTopo(parkingLotSegments, 100*sim.Gbps),
			workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.5})
	}, mustRunLoad)
}

// parkingLotTables renders the parking-lot comparison: the Figure-11
// FCT panel plus the pause/queue summary.
func parkingLotTables(g *Grid[*LoadResult]) []*Table {
	fct := fctTable(fmt.Sprintf("Extra: 95th-pct FCT slowdown, %s (parking lot, %d segments)", g.Rows[0], parkingLotSegments),
		g.Cols, stats.FBHadoopEdges(), g.Results[0], p95)
	fct.AddNote("multi-bottleneck chain: inter-switch links at host rate (oversubscribed), long paths cross every segment")

	sum := &Table{
		Title: "Extra: pause and queues on the parking lot",
		Cols:  []string{"scheme", "pause-frac(%)", "q-p99(KB)", "drops", "censored"},
	}
	for c, s := range g.Cols {
		lr := g.Results[0][c]
		sum.AddRow(s,
			f2(lr.PauseFrac*100),
			f1(lr.Queue.P99/1024),
			fmt.Sprintf("%d", lr.Drops),
			fmt.Sprintf("%d", lr.Censored))
		sum.AddDist("slowdown "+s, lr.FCT.SlowdownSketch(0))
	}
	return []*Table{fct, sum}
}
