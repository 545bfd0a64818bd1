package experiment

import (
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

func init() {
	Register(Scenario{
		Name:  "fig10",
		Order: 60,
		Title: "HPCC vs DCQCN end-to-end: FCT and queues (WebSearch, PoD)",
		Run:   func(p Params) []*Table { return fig10Tables(Fig10(p.scale())) },
	})
}

// Fig10 is the testbed end-to-end comparison (Figure 10): HPCC and
// DCQCN (columns) on the PoD at 30% and 50% WebSearch load (rows).
func Fig10(sc Scale) *Grid[*LoadResult] {
	sc.normalize(800)
	loads := []float64{0.3, 0.5}
	schemes := []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")}
	return runGrid(loadLabels("%.1f%%", loads...), schemeLabels(schemes), func(r, c int) LoadScenario {
		return sc.load(schemes[c], PodTopo(topology.PodSpec{}),
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: loads[r]})
	}, mustRunLoad)
}

// fig10Tables renders Figure 10's four panels: FCT slowdown buckets and
// the queue-length distribution at each load.
func fig10Tables(g *Grid[*LoadResult]) []*Table {
	var cols []string
	for _, s := range g.Cols {
		cols = append(cols, s+"-p50", s+"-p95", s+"-p99")
	}
	var out []*Table
	for r, load := range g.Rows {
		fct := fctTable("Figure 10"+string(rune('a'+2*r))+": FCT slowdown, WebSearch "+load+" load (testbed PoD)",
			cols, stats.WebSearchEdges(), g.Results[r], func(st stats.Summary) []string {
				return []string{f2(st.P50), f2(st.P95), f2(st.P99)}
			})
		for c, s := range g.Cols {
			lr := g.Results[r][c]
			fct.AddNote("%s: %d flows (%d censored), %d drops", s, lr.Started, lr.Censored, lr.Drops)
		}
		out = append(out, fct)

		q := &Table{
			Title: "Figure 10" + string(rune('b'+2*r)) + ": queue length, WebSearch " + load + " load",
			Cols:  []string{"scheme", "p50(KB)", "p95(KB)", "p99(KB)", "max(KB)"},
		}
		for c, s := range g.Cols {
			lr := g.Results[r][c]
			q.AddRow(s, f1(lr.Queue.P50/1024), f1(lr.Queue.P95/1024), f1(lr.Queue.P99/1024), f1(lr.Queue.Max/1024))
		}
		out = append(out, q)
	}
	return out
}
