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
		Run:   func(p Params) []*Table { return HadoopIncastMix(p.Fat, p.scale()).Tables() },
	})
	Register(Scenario{
		Name:  "extra-rpc-fattree",
		Order: 133,
		Title: "RPC request-response (RDMA READ) at FatTree scale, WebSearch responses",
		Run:   func(p Params) []*Table { return RPCFatTree(p.Fat, p.scale()).Tables() },
	})
}

// HadoopIncastResult is the §5.3-style "realistic mix" on FB_Hadoop:
// background Poisson at 50% load plus periodic N-to-1 incast bursts at
// 2% of capacity — the regime where HPCC's fast drain shows up in the
// short-flow tail while incast victims stress PFC.
type HadoopIncastResult struct {
	FanIn   int
	Schemes []string
	Buckets [][]stats.BucketRow
	Results []*LoadResult
}

// HadoopIncastMix runs FB_Hadoop at 50% + incast for HPCC and DCQCN.
func HadoopIncastMix(spec topology.FatTreeSpec, sc Scale) *HadoopIncastResult {
	sc.normalize(400)
	if spec.Cores == 0 {
		spec = topology.ScaledFatTree()
	}
	// The paper's simulation uses 60-to-1; keep the fan-in meaningful
	// on scaled-down fabrics.
	fanIn := 60
	if n := spec.NumHosts(); fanIn >= n/2 {
		fanIn = n / 2
	}
	res := &HadoopIncastResult{FanIn: fanIn}
	for _, scheme := range []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")} {
		res.Schemes = append(res.Schemes, scheme.Name)
		r := mustRunLoad(LoadScenario{
			Scheme: scheme,
			Topo:   FatTreeTopo(spec),
			Traffic: []workload.Generator{
				workload.PoissonSpec{CDF: workload.FBHadoop(), Load: 0.5},
				workload.IncastSpec{FanIn: fanIn, Size: 500_000, LoadFrac: 0.02},
			},
			MaxFlows:    sc.MaxFlows,
			Until:       sc.Until,
			Drain:       sc.Drain,
			PFC:         true,
			Seed:        sc.Seed,
			BufferBytes: BufferFor(spec.NumHosts()),
		})
		res.Buckets = append(res.Buckets, r.FCT.Buckets(stats.FBHadoopEdges()))
		res.Results = append(res.Results, r)
	}
	return res
}

// Tables renders the mix: the FB_Hadoop FCT panel plus the incast-side
// pause/queue summary.
func (r *HadoopIncastResult) Tables() []*Table {
	fct := &Table{
		Title: fmt.Sprintf("Extra: 95th-pct FCT slowdown, FB_Hadoop 50%% + %d:1 incast (FatTree)", r.FanIn),
		Cols:  []string{"size"},
	}
	fct.Cols = append(fct.Cols, r.Schemes...)
	for b := range r.Buckets[0] {
		row := []string{sizeLabel(r.Buckets[0][b].Hi)}
		for si := range r.Schemes {
			row = append(row, f2(r.Buckets[si][b].Stats.P95))
		}
		fct.AddRow(row...)
	}
	fct.AddNote("background FB_Hadoop Poisson at 50%% load + periodic fan-in bursts at 2%% of capacity")

	sum := &Table{
		Title: "Extra: pause and queues under the incast mix",
		Cols:  []string{"scheme", "sd-p99", "p95-lat-short(us)", "q-p99(KB)", "pause-frac(%)", "drops", "censored"},
	}
	for si, s := range r.Schemes {
		lr := r.Results[si]
		sl := lr.FCT.Slowdowns()
		sum.AddRow(s,
			f2(stats.Percentile(sl, 99)),
			f1(lr.ShortFlowP95Latency(7_000)),
			f1(lr.Queue.P99/1024),
			f2(lr.PauseFrac*100),
			fmt.Sprintf("%d", lr.Drops),
			fmt.Sprintf("%d", lr.Censored))
	}
	return []*Table{fct, sum}
}

// RPCResult is the request-response scenario at FatTree scale: every
// request issues an RDMA READ (§4.2) whose response size is drawn from
// WebSearch, measured at the requester — request-to-last-byte.
type RPCResult struct {
	Schemes []string
	Buckets [][]stats.BucketRow
	Results []*LoadResult
}

// RPCFatTree runs READ request-response traffic at 30% response-byte
// load for HPCC and DCQCN.
func RPCFatTree(spec topology.FatTreeSpec, sc Scale) *RPCResult {
	sc.normalize(400)
	if spec.Cores == 0 {
		spec = topology.ScaledFatTree()
	}
	res := &RPCResult{}
	for _, scheme := range []Scheme{ByNameMust("hpcc"), ByNameMust("dcqcn")} {
		res.Schemes = append(res.Schemes, scheme.Name)
		r := mustRunLoad(LoadScenario{
			Scheme:      scheme,
			Topo:        FatTreeTopo(spec),
			Traffic:     []workload.Generator{workload.RPCSpec{CDF: workload.WebSearch(), Load: 0.3}},
			MaxFlows:    sc.MaxFlows,
			Until:       sc.Until,
			Drain:       sc.Drain,
			PFC:         true,
			Seed:        sc.Seed,
			BufferBytes: BufferFor(spec.NumHosts()),
		})
		res.Buckets = append(res.Buckets, r.FCT.Buckets(stats.WebSearchEdges()))
		res.Results = append(res.Results, r)
	}
	return res
}

// Tables renders the RPC panel: per-size p95 response slowdown plus
// the summary row per scheme.
func (r *RPCResult) Tables() []*Table {
	fct := &Table{
		Title: "Extra: 95th-pct READ response slowdown, WebSearch responses at 30% (FatTree)",
		Cols:  []string{"size"},
	}
	fct.Cols = append(fct.Cols, r.Schemes...)
	for b := range r.Buckets[0] {
		row := []string{sizeLabel(r.Buckets[0][b].Hi)}
		for si := range r.Schemes {
			row = append(row, f2(r.Buckets[si][b].Stats.P95))
		}
		fct.AddRow(row...)
	}
	fct.AddNote("response streamed by the responder's QP; clock runs request-to-last-byte at the requester")

	sum := &Table{
		Title: "Extra: RPC summary",
		Cols:  []string{"scheme", "sd-p50", "sd-p99", "q-p99(KB)", "pause-frac(%)", "censored"},
	}
	for si, s := range r.Schemes {
		lr := r.Results[si]
		sl := lr.FCT.Slowdowns()
		sum.AddRow(s,
			f2(stats.Percentile(sl, 50)),
			f2(stats.Percentile(sl, 99)),
			f1(lr.Queue.P99/1024),
			f2(lr.PauseFrac*100),
			fmt.Sprintf("%d", lr.Censored))
	}
	return []*Table{fct, sum}
}
