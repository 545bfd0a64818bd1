package experiment

import (
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

func init() {
	Register(Scenario{
		Name:  "fig11",
		Order: 70,
		Title: "six-scheme comparison at scale (FB_Hadoop, FatTree)",
		Run: func(p Params) []*Table {
			return fig11Tables(Fig11(p.Fat, p.scale()), fanIn(fatTreeOrScaled(p.Fat), 4))
		},
	})
}

// Fig11 is the six-scheme large-scale comparison (Figure 11): the
// Figure-11 schemes (columns) under FB_Hadoop on the FatTree at 30%
// load plus an incast (row 0) and at 50% load (row 1). The FatTree and
// incast fan-in scale with spec; the paper's full setup is
// topology.PaperFatTree() with fan-in 60.
func Fig11(spec topology.FatTreeSpec, sc Scale) *Grid[*LoadResult] {
	sc.normalize(600)
	spec = fatTreeOrScaled(spec)
	incast := workload.IncastSpec{FanIn: fanIn(spec, 4), Size: 500_000, LoadFrac: 0.02}
	schemes := Fig11Schemes()
	loads := []float64{0.3, 0.5}
	return runGrid([]string{"30% + incast", "50%"}, schemeLabels(schemes), func(r, c int) LoadScenario {
		s := sc.fatTree(schemes[c], spec, workload.PoissonSpec{CDF: workload.FBHadoop(), Load: loads[r]})
		if r == 0 {
			s.Traffic = append(s.Traffic, incast)
		}
		return s
	}, mustRunLoad)
}

// fig11Tables renders Figure 11's four panels: 95th-percentile FCT
// slowdowns, then PFC pause fractions and short-flow tail latency, per
// load; fanIn is the incast's.
func fig11Tables(g *Grid[*LoadResult], fanIn int) []*Table {
	var out []*Table
	for r, panel := range g.Rows {
		fct := fctTable("Figure 11"+string(rune('a'+2*r))+": 95th-pct FCT slowdown, FB_Hadoop "+panel+" (FatTree)",
			g.Cols, stats.FBHadoopEdges(), g.Results[r], p95)
		if r == 0 {
			fct.AddNote("incast: %d-to-1 × 500KB at 2%% of capacity", fanIn)
		}
		out = append(out, fct)

		pfc := &Table{
			Title: "Figure 11" + string(rune('b'+2*r)) + ": PFC pause and tail latency, " + panel,
			Cols:  []string{"scheme", "pause-frac(%)", "p95-lat-short(us)", "q-p99(KB)", "censored"},
		}
		for c, s := range g.Cols {
			lr := g.Results[r][c]
			pfc.AddRow(s,
				f2(lr.PauseFrac*100),
				f1(lr.ShortFlowP95Latency(7_000)),
				f1(lr.Queue.P99/1024),
				f1(float64(lr.Censored)))
		}
		out = append(out, pfc)
	}
	return out
}
