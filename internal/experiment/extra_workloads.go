package experiment

import (
	"fmt"

	"hpcc/internal/stats"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// The remaining workload-breadth scenarios ROADMAP lists: FB_Hadoop
// incast mixes and an RPC request-response job at FatTree scale, both
// composed from the spec-based generators (PR 3) and registered like
// every reproduction job.
func init() {
	Register(Scenario{
		Name:  "extra-hadoop-incast",
		Order: 132,
		Title: "FB_Hadoop + incast mix on the FatTree (HPCC vs DCQCN, §5.3-style)",
		Run:   func(p Params) []*Table { return hadoopIncastTables(HadoopIncastMix(p.Fat, p.scale())) },
	})
	Register(Scenario{
		Name:  "extra-rpc-fattree",
		Order: 133,
		Title: "RPC request-response (RDMA READ) at FatTree scale, WebSearch responses",
		Run:   func(p Params) []*Table { return rpcTables(RPCFatTree(p.Fat, p.scale())) },
	})
}

// HadoopIncastMix is the §5.3-style "realistic mix" on FB_Hadoop:
// background Poisson at 50% load plus periodic N-to-1 incast bursts at
// 2% of capacity (the one row), for HPCC and DCQCN (columns) — the
// regime where HPCC's fast drain shows up in the short-flow tail while
// incast victims stress PFC.
func HadoopIncastMix(spec topology.FatTreeSpec, sc Scale) *Grid[*LoadResult] {
	sc.normalize(400)
	spec = fatTreeOrScaled(spec)
	// The paper's simulation uses 60-to-1; keep the fan-in meaningful
	// on scaled-down fabrics.
	n := fanIn(spec, 2)
	schemes := []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")}
	return runGrid([]string{fmt.Sprintf("FB_Hadoop 50%% + %d:1 incast", n)}, schemeLabels(schemes), func(_, c int) LoadScenario {
		return sc.fatTree(schemes[c], spec,
			workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.5},
			workload.IncastSpec{FanIn: n, Size: 500_000, LoadFrac: 0.02})
	}, mustRunLoad)
}

// hadoopIncastTables renders the mix: the FB_Hadoop FCT panel plus the
// incast-side pause/queue summary.
func hadoopIncastTables(g *Grid[*LoadResult]) []*Table {
	fct := fctTable("Extra: 95th-pct FCT slowdown, "+g.Rows[0]+" (FatTree)",
		g.Cols, stats.FBHadoopEdges(), g.Results[0], p95)
	fct.AddNote("background FB_Hadoop Poisson at 50%% load + periodic fan-in bursts at 2%% of capacity")

	sum := &Table{
		Title: "Extra: pause and queues under the incast mix",
		Cols:  []string{"scheme", "sd-p99", "p95-lat-short(us)", "q-p99(KB)", "pause-frac(%)", "drops", "censored"},
	}
	for c, s := range g.Cols {
		lr := g.Results[0][c]
		sum.AddRow(s,
			f2(lr.FCT.SlowdownQuantile(99)),
			f1(lr.ShortFlowP95Latency(7_000)),
			f1(lr.Queue.P99/1024),
			f2(lr.PauseFrac*100),
			fmt.Sprintf("%d", lr.Drops),
			fmt.Sprintf("%d", lr.Censored))
	}
	return []*Table{fct, sum}
}

// RPCFatTree is the request-response scenario at FatTree scale: every
// request issues an RDMA READ (§4.2) whose response size is drawn from
// WebSearch, at 30% response-byte load (the one row), for HPCC and
// DCQCN (columns). Slowdowns are measured at the requester,
// request-to-last-byte.
func RPCFatTree(spec topology.FatTreeSpec, sc Scale) *Grid[*LoadResult] {
	sc.normalize(400)
	spec = fatTreeOrScaled(spec)
	schemes := []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")}
	return runGrid([]string{"WebSearch responses at 30%"}, schemeLabels(schemes), func(_, c int) LoadScenario {
		return sc.fatTree(schemes[c], spec, workload.RPCSpec{CDF: workload.WebSearch(), Load: 0.3})
	}, mustRunLoad)
}

// rpcTables renders the RPC panel: per-size p95 response slowdown plus
// the summary row per scheme.
func rpcTables(g *Grid[*LoadResult]) []*Table {
	fct := fctTable("Extra: 95th-pct READ response slowdown, "+g.Rows[0]+" (FatTree)",
		g.Cols, stats.WebSearchEdges(), g.Results[0], p95)
	fct.AddNote("response streamed by the responder's QP; clock runs request-to-last-byte at the requester")

	sum := &Table{
		Title: "Extra: RPC summary",
		Cols:  []string{"scheme", "sd-p50", "sd-p99", "q-p99(KB)", "pause-frac(%)", "censored"},
	}
	for c, s := range g.Cols {
		lr := g.Results[0][c]
		sum.AddRow(s,
			f2(lr.FCT.SlowdownQuantile(50)),
			f2(lr.FCT.SlowdownQuantile(99)),
			f1(lr.Queue.P99/1024),
			f2(lr.PauseFrac*100),
			fmt.Sprintf("%d", lr.Censored))
	}
	return []*Table{fct, sum}
}
