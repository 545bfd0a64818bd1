package experiment

import (
	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
)

func init() {
	Register(Scenario{
		Name:  "fig13",
		Order: 90,
		Title: "reaction combining: per-ACK vs per-RTT vs HPCC (16-to-1, 100G)",
		Run:   func(p Params) []*Table { return fig13Tables(Fig13(0, p.Seed)) },
	})
}

// Fig13 compares the reaction-combining strategies of §5.4 (Figure 13):
// per-ACK, per-RTT and HPCC's reference-window scheme (columns) under a
// 16-to-1 incast on 100 Gbps links.
func Fig13(dur sim.Time, seed int64) *Grid[*StarRun] {
	if dur == 0 {
		dur = 400 * sim.Microsecond
	}
	variants := []Scheme{
		HPCC(hpcccc.Config{Reaction: hpcccc.PerAck}),
		HPCC(hpcccc.Config{Reaction: hpcccc.PerRTT}),
		HPCC(hpcccc.Config{}),
	}
	return runGrid([]string{"16-to-1"}, schemeLabels(variants), func(_, c int) starCell {
		return incast16(variants[c], dur, 10*sim.Microsecond, 0, seed)
	}, runStar)
}

// lateQueue is the mean bottleneck queue in bytes after 4 base RTTs,
// when the incast should have drained.
func lateQueue(r *StarRun) float64 { return r.MeanAfter(4 * r.BaseRTT) }

// fig13Tables renders Figure 13's two panels: total goodput and the
// bottleneck queue over time.
func fig13Tables(g *Grid[*StarRun]) []*Table {
	runs := g.Results[0]
	tput := &Table{
		Title: "Figure 13a: total throughput under 16-to-1 incast (100G)",
		Cols:  []string{"time(us)"},
	}
	totals := make([][]stats.TimePoint, len(runs))
	for c, s := range g.Cols {
		tput.Cols = append(tput.Cols, s+"(Gbps)")
		totals[c] = runs[c].TotalGoodput()
	}
	for i, tp := range totals[0] {
		row := []string{f1(tp.T.Microseconds())}
		for _, total := range totals {
			row = append(row, f1(total[i].V))
		}
		tput.AddRow(row...)
	}
	queue := queueTable("Figure 13b: bottleneck queue length under 16-to-1 incast", g, func(i int) int { return i + 20 })
	for c, s := range g.Cols {
		r := runs[c]
		tput.AddNote("%s: average %.1f Gbps of %.1f achievable", s, r.MeanGoodput(), r.Cap)
		queue.AddNote("%s: peak %.1f KB, post-drain mean %.1f KB", s, r.Peak()/1024, lateQueue(r)/1024)
	}
	return []*Table{tput, queue}
}
