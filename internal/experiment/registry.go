package experiment

import (
	"fmt"
	"path"
	"strings"

	"hpcc/internal/topology"
)

// Params parameterizes one scenario run. The campaign runner supplies a
// distinct Seed per job replicate; scenarios must draw all randomness
// from it so runs are reproducible and independent of scheduling.
type Params struct {
	// Scale bounds the load scenarios (flow caps, horizons). Its Seed
	// field is ignored: scenarios must use Params.Seed.
	Scale Scale
	// Fat is the FatTree spec for the large-scale scenarios.
	Fat topology.FatTreeSpec
	// Seed is the replicate's RNG seed.
	Seed int64
}

// scale returns p.Scale with the replicate seed folded in.
func (p Params) scale() Scale {
	sc := p.Scale
	sc.Seed = p.Seed
	return sc
}

// Scenario is one independently runnable experiment — a figure panel
// set, an ablation, or an extra. Each invocation of Run must build its
// own sim.Engine(s), touch no shared mutable state, and derive all
// randomness from Params.Seed, so scenarios can execute concurrently
// and a campaign's output is schedule-independent.
type Scenario struct {
	// Name is the CLI spelling (e.g. "fig11", "fig9-incast"). Scenarios
	// in a family share a dash-separated prefix so the bare family name
	// selects them all ("fig9" runs every "fig9-*" job).
	Name string
	// Title is the one-line description shown by -list.
	Title string
	// Run executes the scenario and returns its rendered tables.
	Run func(Params) []*Table
}

// catalogue is every scenario, in canonical "all" order. A new
// scenario is one entry here.
var catalogue = []Scenario{
	{Name: "fig1", Title: "PFC pause propagation under incast storms (DCQCN, PoD)",
		Run: func(p Params) []*Table { return []*Table{Fig01(0, p.Seed).Table()} }},
	{Name: "fig2", Title: "DCQCN timer trade-off: FCT vs PFC pauses (WebSearch, PoD)",
		Run: func(p Params) []*Table { return fig02Tables(Fig02(p.scale())) }},
	{Name: "fig3", Title: "DCQCN ECN-threshold trade-off: bandwidth vs latency (WebSearch, PoD)",
		Run: func(p Params) []*Table { return fig03Tables(Fig03(p.scale())) }},
	{Name: "fig6", Title: "txRate vs rxRate congestion signal (2-to-1, 100G)",
		Run: func(p Params) []*Table { return []*Table{fig06Table(Fig06(0, p.Seed))} }},
	{Name: "fig9-longshort", Title: "long-flow rate recovery around a 1MB short flow (25G)",
		Run: func(p Params) []*Table { return []*Table{fig09LongShortTable(Fig09LongShort(0, p.Seed))} }},
	{Name: "fig9-incast", Title: "7-to-1 incast joining a long flow: queue build-up and drain (25G)",
		Run: func(p Params) []*Table { return []*Table{fig09IncastTable(Fig09Incast(0, p.Seed))} }},
	{Name: "fig9-mice", Title: "mice latency and queue size under two elephants (25G)",
		Run: func(p Params) []*Table { return []*Table{fig09MiceTable(Fig09Mice(0, p.Seed))} }},
	{Name: "fig9-fairness", Title: "fair share under staggered join/leave (25G)",
		Run: func(p Params) []*Table { return []*Table{fig09FairnessTable(Fig09Fairness(0, p.Seed))} }},
	{Name: "fig10", Title: "HPCC vs DCQCN end-to-end: FCT and queues (WebSearch, PoD)",
		Run: func(p Params) []*Table { return fig10Tables(Fig10(p.scale())) }},
	{Name: "fig11", Title: "six-scheme comparison at scale (FB_Hadoop, FatTree)",
		Run: func(p Params) []*Table { return fig11Tables(Fig11(p.Fat, p.scale()), fanIn(p.Fat, 4)) }},
	{Name: "fig12", Title: "flow-control choices: PFC vs go-back-N vs IRN (FB_Hadoop, FatTree)",
		Run: func(p Params) []*Table { return fig12Tables(Fig12(p.Fat, p.scale())) }},
	{Name: "fig13", Title: "reaction combining: per-ACK vs per-RTT vs HPCC (16-to-1, 100G)",
		Run: func(p Params) []*Table { return fig13Tables(Fig13(0, p.Seed)) }},
	{Name: "fig14", Title: "W_AI sweep: fairness vs standing queue (16-to-1, 100G)",
		Run: func(p Params) []*Table { return []*Table{fig14Table(Fig14(nil, 0, p.Seed))} }},
	{Name: "ablations-eta", Title: "η × maxStage stability sweep (16-to-1 incast, 100G)",
		Run: func(p Params) []*Table { return []*Table{etaMaxStageTable(AblationEtaMaxStage(0, p.Seed))} }},
	{Name: "ablations-quant", Title: "INT precision: simulator floats vs Figure-7 wire quantization (PoD)",
		Run: func(p Params) []*Table { return quantizeTables(AblationINTQuantization(p.scale())) }},
	{Name: "theory", Title: "Appendix A.2 synchronous recursion convergence on random networks",
		Run: func(p Params) []*Table { return []*Table{TheoryLemmaTable(200, p.Seed)} }},
	{Name: "extra-fbsweep", Title: "FB_Hadoop load sweep 30/50/70% on the FatTree (HPCC vs DCQCN)",
		Run: func(p Params) []*Table { return sweepTables(SweepFBHadoop(p.Fat, p.scale())) }},
	{Name: "extra-parkinglot", Title: "six-scheme comparison on an oversubscribed parking-lot chain",
		Run: func(p Params) []*Table { return parkingLotTables(ParkingLotCompare(p.scale())) }},
	{Name: "extra-hadoop-incast", Title: "FB_Hadoop + incast mix on the FatTree (HPCC vs DCQCN, §5.3-style)",
		Run: func(p Params) []*Table { return hadoopIncastTables(HadoopIncastMix(p.Fat, p.scale())) }},
	{Name: "extra-rpc-fattree", Title: "RPC request-response (RDMA READ) at FatTree scale, WebSearch responses",
		Run: func(p Params) []*Table { return rpcTables(RPCFatTree(p.Fat, p.scale())) }},
}

// All returns every scenario in canonical order. The slice is shared:
// callers must not modify it.
func All() []Scenario { return catalogue }

// Match expands CLI selectors into scenarios, deduplicated, in
// canonical order. A selector is "all", an exact name, a family prefix
// ("fig9" selects every "fig9-*"), or a path glob ("fig1*", "*incast*").
// A selector matching nothing is an error.
func Match(selectors []string) ([]Scenario, error) {
	picked := make(map[string]bool)
	for _, sel := range selectors {
		if sel == "all" {
			for _, s := range catalogue {
				picked[s.Name] = true
			}
			continue
		}
		matched := false
		for _, s := range catalogue {
			ok := s.Name == sel || strings.HasPrefix(s.Name, sel+"-")
			if !ok {
				if g, err := path.Match(sel, s.Name); err != nil {
					return nil, fmt.Errorf("experiment: bad pattern %q: %v", sel, err)
				} else if g {
					ok = true
				}
			}
			if ok {
				picked[s.Name] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("experiment: no scenario matches %q (try -list)", sel)
		}
	}
	var out []Scenario
	for _, s := range catalogue {
		if picked[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}
