package experiment

import (
	hpcccc "hpcc/internal/cc/hpcc"
	"hpcc/internal/sim"
	"hpcc/internal/stats"
)

func init() {
	Register(Scenario{
		Name:  "fig14",
		Order: 100,
		Title: "W_AI sweep: fairness vs standing queue (16-to-1, 100G)",
		Run:   func(p Params) []*Table { return []*Table{fig14Table(Fig14(nil, 0, p.Seed))} },
	})
}

// Fig14 sweeps W_AI (rows) over a 16-to-1 incast of long flows at 100
// Gbps (Figure 14, §5.4). The paper's bound for 16 flows at T = 4 µs is
// ≈ 150 bytes; settings beyond it trade queueing for faster fairness.
func Fig14(waiBytes []float64, dur sim.Time, seed int64) *Grid[*StarRun] {
	if len(waiBytes) == 0 {
		waiBytes = []float64{25, 50, 100, 150, 300}
	}
	if dur == 0 {
		dur = 5 * sim.Millisecond
	}
	return runGrid(labels("%.1f", waiBytes...), []string{"HPCC"}, func(r, _ int) starCell {
		// Sample past the (W_AI-independent) line-rate-start transient
		// so the tail percentiles reflect the steady state the sweep is
		// about.
		return incast16(HPCC(hpcccc.Config{WAI: waiBytes[r]}), dur, 100*sim.Microsecond, dur/5, seed)
	}, runStar)
}

// finalShares is every flow's goodput over the run's last millisecond,
// Gbps: the window Figure 14's fairness is judged on.
func finalShares(r *StarRun) []float64 { return r.Rates(r.Dur-sim.Millisecond, r.Dur) }

// stableLimit is the §3.3 rule-of-thumb bound W_init(1−η)/N on W_AI for
// the 16 flows of the incast, bytes.
func stableLimit(r *StarRun) float64 {
	bdp := (100 * sim.Gbps).BytesPerSec() * r.BaseRTT.Seconds()
	return bdp * 0.05 / 16
}

// fig14Table renders the Figure 14 sweep: per W_AI, the Jain index of
// the final per-flow goodput, the steady-state queue tail and the total
// goodput.
func fig14Table(g *Grid[*StarRun]) *Table {
	t := &Table{
		Title: "Figure 14: W_AI sweep, 16-to-1 long flows (100G)",
		Cols:  []string{"WAI(B)", "Jain", "q95(KB)", "q99(KB)", "total(Gbps)"},
	}
	for r, wai := range g.Rows {
		run := g.Results[r][0]
		shares := finalShares(run)
		t.AddRow(wai, f2(stats.Jain(shares)), f1(run.Quantile(95)/1024), f1(run.Quantile(99)/1024), f1(sum(shares)))
	}
	t.AddNote("§3.3 stability bound W_init(1-η)/16 ≈ %.0f bytes: settings beyond it should show larger queues", stableLimit(g.Results[0][0]))
	t.AddNote("queues sampled after the start-up transient; achievable goodput ceiling %.1f Gbps", g.Results[0][0].Cap)
	return t
}
