// Benchmarks regenerating every figure of the paper's evaluation, one
// per panel group (README's figure → scenario map names each). Each bench
// reports the figure's headline metric via b.ReportMetric so regression
// runs can track the reproduced results, and cmd/hpccexp prints the
// full tables.
package hpcc_test

import (
	"testing"

	"hpcc/internal/experiment"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
	"hpcc/internal/topology"
)

// benchScale bounds the load-scenario benches. Figures keep the paper's
// topology shape; flow counts are CI-sized (see cmd/hpccexp -scale
// paper for full runs).
func benchScale() experiment.Scale {
	return experiment.Scale{MaxFlows: 400, Until: 8 * sim.Millisecond, Drain: 20 * sim.Millisecond, Seed: 1}
}

func benchFatTree() topology.FatTreeSpec { return topology.ScaledFatTree() }

func BenchmarkFig01PFCStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig01(0, 1)
		b.ReportMetric(r.SuppressedBandwidthFrac*100, "suppressed-bw-%")
		b.ReportMetric(float64(r.PFCFrames), "pfc-frames")
	}
}

func BenchmarkFig02aTimersFCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.Fig02(benchScale())
		// Headline: big-flow p95 slowdown under conservative (Ti=900,
		// column 0) vs aggressive (Ti=55, column 2) timers.
		edges := stats.WebSearchEdges()
		last := len(edges) - 1
		b.ReportMetric(g.Results[0][0].FCT.Buckets(edges)[last].Stats.P95, "conservative-p95")
		b.ReportMetric(g.Results[0][2].FCT.Buckets(edges)[last].Stats.P95, "aggressive-p95")
	}
}

func BenchmarkFig02bTimersPFC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		incast := experiment.Fig02(benchScale()).Results[1]
		b.ReportMetric(incast[2].PauseFrac*100, "aggressive-pause-%")
		b.ReportMetric(incast[0].PauseFrac*100, "conservative-pause-%")
	}
}

func BenchmarkFig03ECNThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.Fig03(benchScale())
		b.ReportMetric(g.Results[1][0].Queue.P99/1024, "highK-q99-KB")
		b.ReportMetric(g.Results[1][2].Queue.P99/1024, "lowK-q99-KB")
	}
}

func BenchmarkFig06TxVsRxRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig06(0, 1)
		b.ReportMetric(r.RebuildKB[0], "txrate-rebuild-KB")
		b.ReportMetric(r.RebuildKB[1], "rxrate-rebuild-KB")
	}
}

func BenchmarkFig09LongShort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig09LongShort(nil, 0, 1)
		b.ReportMetric(r.TailGbps[0], "hpcc-tail-Gbps")
		b.ReportMetric(r.TailGbps[1], "dcqcn-tail-Gbps")
	}
}

func BenchmarkFig09Incast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig09Incast(nil, 0, 1)
		b.ReportMetric(r.PeakKB[0], "hpcc-peak-KB")
		b.ReportMetric(r.PeakKB[1], "dcqcn-peak-KB")
	}
}

func BenchmarkFig09Mice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig09Mice(nil, 0, 1)
		b.ReportMetric(r.LatencyUs[0].P99, "hpcc-mice-p99-us")
		b.ReportMetric(r.LatencyUs[1].P99, "dcqcn-mice-p99-us")
	}
}

func BenchmarkFig09Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig09Fairness(nil, 0, 1)
		b.ReportMetric(r.Jain[0][3], "hpcc-jain-4flows")
	}
}

func BenchmarkFig10TestbedFCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.Fig10(benchScale())
		// Headline: 50%-load short-flow p99 slowdown, HPCC vs DCQCN
		// (the paper's 95%-reduction claim).
		edges := stats.WebSearchEdges()
		b.ReportMetric(g.Results[1][0].FCT.Buckets(edges)[0].Stats.P99, "hpcc-short-p99")
		b.ReportMetric(g.Results[1][1].FCT.Buckets(edges)[0].Stats.P99, "dcqcn-short-p99")
		b.ReportMetric(g.Results[1][0].Queue.P99/1024, "hpcc-q99-KB")
		b.ReportMetric(g.Results[1][1].Queue.P99/1024, "dcqcn-q99-KB")
	}
}

func BenchmarkFig11SixSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.Fig11(benchFatTree(), benchScale())
		idx := map[string]int{}
		for j, s := range g.Cols {
			idx[s] = j
		}
		b.ReportMetric(g.Results[0][idx["HPCC"]].PauseFrac*100, "hpcc-pause-%")
		b.ReportMetric(g.Results[0][idx["DCQCN"]].PauseFrac*100, "dcqcn-pause-%")
		b.ReportMetric(g.Results[0][idx["HPCC"]].ShortFlowP95Latency(7_000), "hpcc-p95lat-us")
	}
}

func BenchmarkFig12FlowControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.Fig12(benchFatTree(), benchScale())
		// Headline: spread of HPCC's p95 slowdown across flow-control
		// modes (the paper: nearly none) vs DCQCN's.
		b.ReportMetric(spreadP95(g, 1), "hpcc-fc-spread")
		b.ReportMetric(spreadP95(g, 0), "dcqcn-fc-spread")
	}
}

func spreadP95(g *experiment.Grid, scheme int) float64 {
	lo, hi := 1e18, 0.0
	for _, lr := range g.Results[scheme] {
		var sum, n float64
		for _, row := range lr.FCT.Buckets(stats.FBHadoopEdges()) {
			if row.Stats.N > 0 {
				sum += row.Stats.P95
				n++
			}
		}
		if n == 0 {
			continue
		}
		avg := sum / n
		if avg < lo {
			lo = avg
		}
		if avg > hi {
			hi = avg
		}
	}
	return hi - lo
}

func BenchmarkFig13ReactionStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig13(0, 1)
		b.ReportMetric(r.AvgGbps[0], "perack-Gbps")
		b.ReportMetric(r.AvgGbps[1], "perrtt-Gbps")
		b.ReportMetric(r.AvgGbps[2], "hpcc-Gbps")
	}
}

func BenchmarkFig14WAISweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig14(nil, 0, 1)
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(first.Queue95KB, "wai25-q95-KB")
		b.ReportMetric(last.Queue95KB, "wai300-q95-KB")
		b.ReportMetric(last.Jain, "wai300-jain")
	}
}

func BenchmarkAblationEtaMaxStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.AblationEtaMaxStage(0, 1)
		b.ReportMetric(rows[len(rows)-1].Queue95KB, "eta98ms5-q95-KB")
	}
}

func BenchmarkAblationINTQuantize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.AblationINTQuantization(benchScale())
		b.ReportMetric(g.Results[0][0].FCT.SlowdownQuantile(95), "float-p95")
		b.ReportMetric(g.Results[1][0].FCT.SlowdownQuantile(95), "wire-p95")
	}
}

func BenchmarkTheoryLemma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.TheoryLemmaTable(100, 1)
	}
}
