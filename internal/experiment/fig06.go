package experiment

import "hpcc/internal/sim"

func init() {
	Register(Scenario{
		Name:  "fig6",
		Order: 40,
		Title: "txRate vs rxRate congestion signal (2-to-1, 100G)",
		Run:   func(p Params) []*Table { return []*Table{fig06Table(Fig06(0, p.Seed))} },
	})
}

// Fig06 runs the 2-to-1 congestion scenario of §3.4 for HPCC and
// HPCC-rxRate (columns) and samples the bottleneck queue over time.
func Fig06(dur sim.Time, seed int64) *Grid[*StarRun] {
	if dur == 0 {
		dur = 400 * sim.Microsecond
	}
	schemes := []Scheme{ByNameMust("hpcc"), ByNameMust("hpcc-rxrate")}
	return runGrid([]string{"2-to-1"}, schemeLabels(schemes), func(_, c int) starCell {
		return starCell{Scheme: schemes[c], Hosts: 3, Rate: 100 * sim.Gbps, Flows: longFlows(2, 2),
			Dur: dur, Bin: 10 * sim.Microsecond, Sink: 2, Seed: seed}
	}, runStar)
}

// fig06Table renders Figure 6 as queue-over-time columns (dense during
// the transient, sparse after). The notes give the line-rate-start
// overshoot (identical for both) and the queue rebuild after the first
// drain: the oscillation Figure 6 shows for rxRate, near zero for
// txRate.
func fig06Table(g *Grid[*StarRun]) *Table {
	t := queueTable("Figure 6: txRate vs rxRate congestion signal (2-to-1, 100G) — queue length", g, func(i int) int {
		if i < 60 {
			return i + 3
		}
		return i + 30
	})
	for c, s := range g.Cols {
		first, rebuild := g.Results[0][c].Overshoot()
		t.AddNote("%s: line-rate-start peak %.1f KB; queue rebuild after first drain %.1f KB",
			s, first/1024, rebuild/1024)
	}
	return t
}
