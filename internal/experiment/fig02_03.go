package experiment

import (
	"fmt"

	"hpcc/internal/cc/dcqcn"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// Fig02Timers are the three (Ti, Td) settings of Figure 2: the DCQCN
// paper's original, a vendor default, and the authors' conservative
// tuning.
func Fig02Timers() []dcqcn.Config {
	return []dcqcn.Config{
		{RateIncTimer: 900 * sim.Microsecond, MinDecGap: 4 * sim.Microsecond},
		{RateIncTimer: 300 * sim.Microsecond, MinDecGap: 4 * sim.Microsecond},
		{RateIncTimer: 55 * sim.Microsecond, MinDecGap: 50 * sim.Microsecond},
	}
}

// Fig02 is the throughput-vs-stability motivation experiment (§2.3,
// Figure 2): DCQCN under 30% WebSearch on the testbed PoD with three
// timer settings (columns), under plain load (row 0, panel a) and with
// a 16-to-1 incast added (row 1, panel b).
func Fig02(sc Scale) *Grid[*LoadResult] {
	sc.normalize(600)
	timers := Fig02Timers()
	labels := make([]string, len(timers))
	for i, c := range timers {
		labels[i] = fmt.Sprintf("Ti=%d,Td=%d", int64(c.RateIncTimer/sim.Microsecond), int64(c.MinDecGap/sim.Microsecond))
	}
	return runGrid([]string{"plain", "incast"}, labels, func(r, c int) LoadScenario {
		s := sc.load(DCQCN(timers[c]), topology.PodSpec{},
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.3})
		if r == 1 {
			s.Traffic = append(s.Traffic, workload.IncastSpec{FanIn: 16, Size: 500_000, LoadFrac: 0.02})
			s.BufferBytes = BufferFor(32)
		}
		return s
	}, mustRunLoad)
}

func fig02Tables(g *Grid[*LoadResult]) []*Table {
	a := fctTable("Figure 2a: 95th-pct FCT slowdown vs DCQCN timers (WebSearch 30%, PoD)",
		g.Cols, stats.WebSearchEdges(), g.Results[0], p95)
	b := &Table{
		Title: "Figure 2b: PFC pauses and latency with incast (WebSearch 30% + 16-to-1)",
		Cols:  []string{"timers", "pause-frac(%)", "p95-lat-short(us)", "q-p99(KB)"},
	}
	for c, lab := range g.Cols {
		lr := g.Results[1][c]
		// The panel's short class is flows up to 30 KB, wider than
		// stats.ShortFlowLimit, so it reads the exact records.
		var lat []float64
		for _, rec := range lr.FCT.Records {
			if rec.Size <= 30_000 {
				lat = append(lat, rec.FCT.Microseconds())
			}
		}
		b.AddRow(lab, f2(lr.PauseFrac*100), f1(stats.Percentile(lat, 95)), f1(lr.Queue.P99/1024))
	}
	b.AddNote("aggressive timers (small Ti, large Td) recover bandwidth faster (2a) but pause more under incast (2b)")
	return []*Table{a, b}
}

// Fig03Thresholds are the ECN (Kmin, Kmax) pairs of Figure 3, at the
// 25 Gbps reference rate.
func Fig03Thresholds() [][2]int64 {
	return [][2]int64{
		{400 << 10, 1600 << 10},
		{100 << 10, 400 << 10},
		{12 << 10, 50 << 10},
	}
}

// Fig03 is the bandwidth-vs-latency motivation experiment (§2.3,
// Figure 3): DCQCN on the PoD at 30% and 50% WebSearch load (rows)
// under three ECN threshold settings (columns).
func Fig03(sc Scale) *Grid[*LoadResult] {
	sc.normalize(600)
	loads := []float64{0.3, 0.5}
	ths := Fig03Thresholds()
	labels := make([]string, len(ths))
	for i, th := range ths {
		labels[i] = fmt.Sprintf("Kmin=%dK,Kmax=%dK", th[0]>>10, th[1]>>10)
	}
	return runGrid(loadLabels("%.0f%%", loads...), labels, func(r, c int) LoadScenario {
		return sc.load(DCQCNWithECN(dcqcn.Config{}, ths[c][0], ths[c][1]), topology.PodSpec{},
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: loads[r]})
	}, mustRunLoad)
}

func fig03Tables(g *Grid[*LoadResult]) []*Table {
	var out []*Table
	for r, load := range g.Rows {
		t := fctTable(fmt.Sprintf("Figure 3%c: 95th-pct FCT slowdown vs ECN thresholds (WebSearch %s, PoD)", 'a'+r, load),
			g.Cols, stats.WebSearchEdges(), g.Results[r], p95)
		for c, lab := range g.Cols {
			t.AddNote("%s: queue p99 %.1f KB", lab, g.Results[r][c].Queue.P99/1024)
		}
		out = append(out, t)
	}
	return out
}
