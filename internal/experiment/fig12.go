package experiment

import (
	"hpcc/internal/host"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// Fig12 is the flow-control-choices experiment (Figure 12): DCQCN and
// HPCC (rows) under lossless PFC, lossy go-back-N and lossy IRN
// (columns) on the FatTree at 30% FB_Hadoop load plus an incast. The
// paper's takeaway: with HPCC the flow-control choice barely matters;
// with DCQCN it does — CC is the key problem.
func Fig12(spec topology.FatTreeSpec, sc Scale) *Grid[*LoadResult] {
	sc.normalize(600)
	traffic := []workload.Generator{
		workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.3},
		workload.IncastSpec{FanIn: fanIn(spec, 4), Size: 500_000, LoadFrac: 0.02},
	}
	schemes := []Scheme{ByNameMust("dcqcn"), ByNameMust("hpcc")}
	return runGrid(schemeLabels(schemes), []string{"PFC", "GBN", "IRN"}, func(r, c int) LoadScenario {
		s := sc.fatTree(schemes[r], spec, traffic...)
		s.PFC = c == 0
		if c == 2 {
			s.FlowCtl = host.IRN
		}
		return s
	}, mustRunLoad)
}

// fig12Tables renders Figure 12's two panels, one per CC scheme.
func fig12Tables(g *Grid[*LoadResult]) []*Table {
	var out []*Table
	for r, scheme := range g.Rows {
		var cols []string
		for _, m := range g.Cols {
			cols = append(cols, scheme+"-"+m)
		}
		t := fctTable("Figure 12: 95th-pct FCT slowdown by flow control — "+scheme+" (FB_Hadoop 30% + incast)",
			cols, stats.FBHadoopEdges(), g.Results[r], p95)
		for c, m := range g.Cols {
			lr := g.Results[r][c]
			t.AddNote("%s: %d drops, pause %.2f%%, %d censored", m, lr.Drops, lr.PauseFrac*100, lr.Censored)
		}
		out = append(out, t)
	}
	return out
}
