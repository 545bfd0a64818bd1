package experiment

import (
	"fmt"
	"math/rand"

	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/sim"
	"hpcc/internal/theory"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

func init() {
	Register(Scenario{
		Name:  "ablations-eta",
		Order: 110,
		Title: "η × maxStage stability sweep (16-to-1 incast, 100G)",
		Run:   func(p Params) []*Table { return []*Table{etaMaxStageTable(AblationEtaMaxStage(0, p.Seed))} },
	})
	Register(Scenario{
		Name:  "ablations-quant",
		Order: 111,
		Title: "INT precision: simulator floats vs Figure-7 wire quantization (PoD)",
		Run:   func(p Params) []*Table { return quantizeTables(AblationINTQuantization(p.scale())) },
	})
	Register(Scenario{
		Name:  "theory",
		Order: 120,
		Title: "Appendix A.2 synchronous recursion convergence on random networks",
		Run:   func(p Params) []*Table { return []*Table{TheoryLemmaTable(200, p.Seed)} },
	})
}

func randomTheorySystem(rng *rand.Rand) *theory.System {
	return theory.RandomSystem(rng, 6, 8)
}

// AblationEtaMaxStage sweeps HPCC's two stability parameters, η (rows)
// and maxStage (columns), over the 16-to-1 incast — the paper's §5.1
// footnote 5: "we tried maxStage from 0 to 5, and η from 95% to 98%,
// all of which give similar results".
func AblationEtaMaxStage(dur sim.Time, seed int64) *Grid[*StarRun] {
	if dur == 0 {
		dur = 2 * sim.Millisecond
	}
	etas := []float64{0.95, 0.98}
	stages := []int{1, 3, 5}
	return runGrid(labels("%.2f", etas...), labels("%d", stages...), func(r, c int) starCell {
		// Sample steady state only: the line-rate-start transient
		// (identical for every setting) would otherwise dominate the
		// tail percentiles.
		return incast16(HPCC(hpcccc.Config{Eta: etas[r], MaxStage: stages[c]}), dur, 100*sim.Microsecond, dur/2, seed)
	}, runStar)
}

// etaMaxStageTable renders the sweep: the steady-state queue tail and
// total goodput of every setting.
func etaMaxStageTable(g *Grid[*StarRun]) *Table {
	t := &Table{
		Title: "Ablation: η × maxStage stability sweep (16-to-1 incast, 100G)",
		Cols:  []string{"eta", "maxStage", "q95(KB)", "steady-tput(Gbps)"},
	}
	for r, eta := range g.Rows {
		for c, stage := range g.Cols {
			run := g.Results[r][c]
			t.AddRow(eta, stage, f1(run.Quantile(95)/1024), f1(sum(run.Rates(run.Dur/2, run.Dur))))
		}
	}
	t.AddNote("paper §5.1 footnote 5: all settings in this range behave similarly")
	return t
}

// AblationINTQuantization runs HPCC on the PoD with full-precision INT
// (row 0) and with Figure-7 wire quantization of the telemetry (row 1:
// txBytes in 128B units, qLen in 80B units, TS in ns).
func AblationINTQuantization(sc Scale) *Grid[*LoadResult] {
	sc.normalize(300)
	return runGrid([]string{"full-precision", "figure-7-wire"}, []string{"HPCC"}, func(r, _ int) LoadScenario {
		s := sc.load(ByNameMust("hpcc"), PodTopo(topology.PodSpec{}),
			workload.PoissonSpec{CDF: workload.WebSearch(), Load: 0.3})
		s.INTQuantize = r == 1
		return s
	}, mustRunLoad)
}

func quantizeTables(g *Grid[*LoadResult]) []*Table {
	t := &Table{
		Title: "Ablation: INT precision — simulator floats vs Figure-7 wire quantization",
		Cols:  []string{"INT precision", "FCT-p95-slowdown", "q-p99(KB)"},
	}
	for r, label := range g.Rows {
		lr := g.Results[r][0]
		t.AddRow(label, f2(lr.FCT.SlowdownQuantile(95)), f1(lr.Queue.P99/1024))
	}
	t.AddNote("the 80B/128B/ns quantization of §4.1 should not change behaviour materially")
	return []*Table{t}
}

// TheoryLemmaTable exercises Appendix A.2 end-to-end: random systems,
// steps to ε-Pareto-optimality.
func TheoryLemmaTable(samples int, seed int64) *Table {
	t := &Table{
		Title: "Appendix A.2: synchronous recursion convergence on random networks",
		Cols:  []string{"metric", "value"},
	}
	rng := sim.NewRNG(seed, "lemma")
	feasibleAfter1 := 0
	totalSteps := 0
	pareto := 0
	for i := 0; i < samples; i++ {
		s := randomTheorySystem(rng)
		r := make([]float64, len(s.A[0]))
		for j := range r {
			r[j] = rng.Float64()*200 + 1
		}
		if s.Feasible(s.Step(r)) {
			feasibleAfter1++
		}
		traj := s.Converge(r, 400)
		totalSteps += len(traj) - 1
		if s.ParetoOptimal(traj[len(traj)-1], 1e-5) {
			pareto++
		}
	}
	t.AddRow("systems sampled", fmt.Sprintf("%d", samples))
	t.AddRow("feasible after 1 step (Lemma i)", fmt.Sprintf("%d/%d", feasibleAfter1, samples))
	t.AddRow("ε-Pareto-optimal at convergence (Lemma iii)", fmt.Sprintf("%d/%d", pareto, samples))
	t.AddRow("mean steps to convergence", f1(float64(totalSteps)/float64(samples)))
	return t
}
