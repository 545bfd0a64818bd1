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
		runs := experiment.Fig06(0, 1).Results[0]
		_, tx := runs[0].Overshoot()
		_, rx := runs[1].Overshoot()
		b.ReportMetric(tx/1024, "txrate-rebuild-KB")
		b.ReportMetric(rx/1024, "rxrate-rebuild-KB")
	}
}

func BenchmarkFig09LongShort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The long flow's goodput over the run's final quarter.
		runs := experiment.Fig09LongShort(0, 1).Results[0]
		b.ReportMetric(runs[0].Rates(runs[0].Dur*3/4, runs[0].Dur)[0], "hpcc-tail-Gbps")
		b.ReportMetric(runs[1].Rates(runs[1].Dur*3/4, runs[1].Dur)[0], "dcqcn-tail-Gbps")
	}
}

func BenchmarkFig09Incast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiment.Fig09Incast(0, 1).Results[0]
		b.ReportMetric(runs[0].Peak()/1024, "hpcc-peak-KB")
		b.ReportMetric(runs[1].Peak()/1024, "dcqcn-peak-KB")
	}
}

func BenchmarkFig09Mice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiment.Fig09Mice(0, 1).Results[0]
		b.ReportMetric(stats.Summarize(runs[0].Latencies(2)).P99, "hpcc-mice-p99-us")
		b.ReportMetric(stats.Summarize(runs[1].Latencies(2)).P99, "dcqcn-mice-p99-us")
	}
}

func BenchmarkFig09Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Epoch 3 of 7, all four flows active, measured over its second
		// half.
		r := experiment.Fig09Fairness(0, 1).Results[0][0]
		epoch := r.Dur / 7
		b.ReportMetric(stats.Jain(r.Rates(3*epoch+epoch/2, 4*epoch)), "hpcc-jain-4flows")
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
		b.ReportMetric(g.Results[0][idx["HPCC"]].FCT.ShortLatencyQuantile(95), "hpcc-p95lat-us")
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

func spreadP95(g *experiment.Grid[*experiment.LoadResult], scheme int) float64 {
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
		runs := experiment.Fig13(0, 1).Results[0]
		b.ReportMetric(runs[0].MeanGoodput(), "perack-Gbps")
		b.ReportMetric(runs[1].MeanGoodput(), "perrtt-Gbps")
		b.ReportMetric(runs[2].MeanGoodput(), "hpcc-Gbps")
	}
}

func BenchmarkFig14WAISweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.Fig14(nil, 0, 1)
		first, last := g.Results[0][0], g.Results[len(g.Results)-1][0]
		b.ReportMetric(first.Quantile(95)/1024, "wai25-q95-KB")
		b.ReportMetric(last.Quantile(95)/1024, "wai300-q95-KB")
		b.ReportMetric(stats.Jain(last.Rates(last.Dur-sim.Millisecond, last.Dur)), "wai300-jain")
	}
}

func BenchmarkAblationEtaMaxStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := experiment.AblationEtaMaxStage(0, 1)
		b.ReportMetric(g.Results[1][2].Quantile(95)/1024, "eta98ms5-q95-KB")
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
